package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// lintFixture runs every check over a single fixture file, pretending it
// belongs to the package named by importPath (so path-scoped checks can
// be exercised from testdata).
func lintFixture(t *testing.T, name, importPath string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	path := filepath.Join("testdata", name)
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	fi := &fileInfo{Path: path, File: f, allow: buildAllow(fset, f), imports: moduleImports(f, "vizq")}
	pkg := &pkgInfo{ImportPath: importPath, Fset: fset, Files: []*fileInfo{fi}}
	pkg.typeCheck([]*ast.File{f})
	pkg.buildIndexes()
	mod := moduleFor(fset, "vizq", pkg)
	// The other families' fixtures declare functions nothing calls.
	return slices.DeleteFunc(runChecks(mod, pkg), func(f Finding) bool { return f.Check == "unused" })
}

// lintTree runs every check over dir/... (the repository itself, or a
// fixture tree for the module-wide families; either is module vizq).
func lintTree(t *testing.T, dir string) []Finding {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	dirs, err := resolveDirs([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	mod, err := loadModule(token.NewFileSet(), dirs, modulePath("."))
	if err != nil {
		t.Fatal(err)
	}
	var out []Finding
	for _, pkg := range mod.pkgs {
		out = append(out, runChecks(mod, pkg)...)
	}
	return out
}

func countCheck(findings []Finding, check string) int {
	n := 0
	for _, f := range findings {
		if f.Check == check {
			n++
		}
	}
	return n
}

func dump(t *testing.T, findings []Finding) {
	t.Helper()
	for _, f := range findings {
		t.Logf("  %s", f)
	}
}

// lineCheck is one finding's place: the line it is reported at and its
// family.
type lineCheck struct {
	line  int
	check string
}

var wantMarker = regexp.MustCompile(`// want: ([a-z]+)`)

// firesOn lints a bad fixture and returns its findings, failing unless
// they sit exactly on the fixture's `// want: <check>` markers: each
// marker has a finding of that family on its line, and no finding is on a
// line without one.
func firesOn(t *testing.T, name, importPath string) []Finding {
	t.Helper()
	findings := lintFixture(t, name, importPath)
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[lineCheck]bool)
	for i, line := range strings.Split(string(src), "\n") {
		if m := wantMarker.FindStringSubmatch(line); m != nil {
			want[lineCheck{i + 1, m[1]}] = true
		}
	}
	got := make(map[lineCheck]bool)
	for _, f := range findings {
		got[lineCheck{f.Pos.Line, f.Check}] = true
	}
	if !maps.Equal(got, want) {
		dump(t, findings)
		t.Errorf("%s: findings at %v, markers at %v", name, got, want)
	}
	return findings
}

func TestLocksFiresOnBadCode(t *testing.T) {
	findings := firesOn(t, "locks_bad.go", "vizq/internal/fixture")
	// Bump's early return, Total's call-chain re-lock, Twice's double
	// lock, Set's fall-through exit, and Drain's break out of its loop.
	if got := countCheck(findings, "locks"); got != 5 {
		dump(t, findings)
		t.Errorf("locks findings = %d, want 5", got)
	}
}

func TestLocksSilentOnGoodCode(t *testing.T) {
	findings := lintFixture(t, "locks_good.go", "vizq/internal/fixture")
	if len(findings) != 0 {
		dump(t, findings)
		t.Errorf("findings = %d, want 0", len(findings))
	}
}

func TestGoroutineFiresOnBadCode(t *testing.T) {
	// The exec import path turns on the join-signal requirement.
	findings := firesOn(t, "goroutine_bad.go", "vizq/internal/tde/exec")
	// One unprotected shared write plus one missing join signal.
	if got := countCheck(findings, "goroutine"); got != 2 {
		dump(t, findings)
		t.Errorf("goroutine findings = %d, want 2", got)
	}
}

func TestGoroutineSilentOnGoodCode(t *testing.T) {
	findings := lintFixture(t, "goroutine_good.go", "vizq/internal/tde/exec")
	if len(findings) != 0 {
		dump(t, findings)
		t.Errorf("findings = %d, want 0", len(findings))
	}
}

func TestGoroutineJoinScopedToListedPackages(t *testing.T) {
	// Outside the exec/dataserver/remote subsystems the join check is
	// off, but the unprotected-write check still applies.
	findings := lintFixture(t, "goroutine_bad.go", "vizq/internal/cache")
	if got := countCheck(findings, "goroutine"); got != 1 {
		dump(t, findings)
		t.Errorf("goroutine findings = %d, want 1 (write only)", got)
	}
}

func TestErrorsFiresOnBadCode(t *testing.T) {
	findings := firesOn(t, "errors_bad.go", "vizq/internal/kvstore")
	// Discarded Flush, Close and Write results plus one %v-wrapped error.
	if got := countCheck(findings, "errors"); got != 4 {
		dump(t, findings)
		t.Errorf("errors findings = %d, want 4", got)
	}
}

func TestErrorsSilentOnGoodCode(t *testing.T) {
	findings := lintFixture(t, "errors_good.go", "vizq/internal/kvstore")
	if len(findings) != 0 {
		dump(t, findings)
		t.Errorf("findings = %d, want 0", len(findings))
	}
}

func TestErrorsDiscardScopedToListedPackages(t *testing.T) {
	// The discard check is scoped to storage/kvstore; the %w check
	// applies everywhere.
	findings := lintFixture(t, "errors_bad.go", "vizq/internal/cache")
	if got := countCheck(findings, "errors"); got != 1 {
		dump(t, findings)
		t.Errorf("errors findings = %d, want 1 (%%w only)", got)
	}
}

func TestSleepFiresOnBadCode(t *testing.T) {
	findings := firesOn(t, "sleep_bad.go", "vizq/internal/fixture")
	// time.Sleep, time.NewTimer and time.After.
	if got := countCheck(findings, "sleep"); got != 3 {
		dump(t, findings)
		t.Errorf("sleep findings = %d, want 3", got)
	}
}

func TestSleepAllowedInClockPackage(t *testing.T) {
	// internal/clock is where the stack waits, so it may use all three.
	findings := lintFixture(t, "sleep_bad.go", "vizq/internal/clock")
	if got := countCheck(findings, "sleep"); got != 0 {
		dump(t, findings)
		t.Errorf("sleep findings = %d in internal/clock, want 0", got)
	}
}

func TestSleepDirectiveSuppresses(t *testing.T) {
	// Both directive placements — inline and on the line above — apply.
	findings := lintFixture(t, "sleep_good.go", "vizq/internal/fixture")
	if len(findings) != 0 {
		dump(t, findings)
		t.Errorf("findings = %d, want 0", len(findings))
	}
}

func TestObsFiresOnBadCode(t *testing.T) {
	findings := firesOn(t, "obs_bad.go", "vizq/internal/fixture")
	// EarlyReturn's bail-out, FallThrough's missing Finish, Restarted's
	// orphaned first span, DeferOnlySometimes' undeferred branch, and
	// FieldRead's span that only had its name read.
	if got := countCheck(findings, "obs"); got != 5 {
		dump(t, findings)
		t.Errorf("obs findings = %d, want 5", got)
	}
}

func TestObsSilentOnGoodCode(t *testing.T) {
	findings := lintFixture(t, "obs_good.go", "vizq/internal/fixture")
	if len(findings) != 0 {
		dump(t, findings)
		t.Errorf("findings = %d, want 0", len(findings))
	}
}

func TestCtxCancelFiresOnBadCode(t *testing.T) {
	findings := firesOn(t, "ctxcancel_bad.go", "vizq/internal/fixture")
	// EarlyReturnCancel's bail-out, FallThroughCancel's forgotten cancel,
	// ReboundCancel's orphaned timer, and DeferOnlyInOneBranch's cold path.
	if got := countCheck(findings, "ctxcancel"); got != 4 {
		dump(t, findings)
		t.Errorf("ctxcancel findings = %d, want 4", got)
	}
}

func TestCtxCancelSilentOnGoodCode(t *testing.T) {
	findings := lintFixture(t, "ctxcancel_good.go", "vizq/internal/fixture")
	if len(findings) != 0 {
		dump(t, findings)
		t.Errorf("findings = %d, want 0", len(findings))
	}
}

func TestLockOrderFiresOnBadCode(t *testing.T) {
	findings := firesOn(t, "lockorder_bad.go", "vizq/internal/fixture")
	// The LockAB/LockBA cycle, SendWhileLocked's send, and WaitViaCall's
	// blocking callee.
	if got := countCheck(findings, "lockorder"); got != 3 {
		dump(t, findings)
		t.Errorf("lockorder findings = %d, want 3", got)
	}
}

func TestLockOrderSilentOnGoodCode(t *testing.T) {
	findings := lintFixture(t, "lockorder_good.go", "vizq/internal/fixture")
	if len(findings) != 0 {
		dump(t, findings)
		t.Errorf("findings = %d, want 0", len(findings))
	}
}

func TestAtomicsFiresOnBadCode(t *testing.T) {
	findings := firesOn(t, "atomics_bad.go", "vizq/internal/fixture")
	// PlainRead's load and PlainWrite's store of the atomic hits field.
	if got := countCheck(findings, "atomics"); got != 2 {
		dump(t, findings)
		t.Errorf("atomics findings = %d, want 2", got)
	}
}

func TestAtomicsSilentOnGoodCode(t *testing.T) {
	findings := lintFixture(t, "atomics_good.go", "vizq/internal/fixture")
	if len(findings) != 0 {
		dump(t, findings)
		t.Errorf("findings = %d, want 0", len(findings))
	}
}

func TestReleaseFiresOnBadCode(t *testing.T) {
	findings := firesOn(t, "release_bad.go", "vizq/internal/fixture")
	// LeakOnEarlyReturn, LeakOnFallThrough, LeaderForgetsFinish,
	// ProbeLeakOnEarlyReturn, DiscardedProbe, and EnqueueForgetsRemove.
	if got := countCheck(findings, "release"); got != 6 {
		dump(t, findings)
		t.Errorf("release findings = %d, want 6", got)
	}
}

func TestReleaseSilentOnGoodCode(t *testing.T) {
	findings := lintFixture(t, "release_good.go", "vizq/internal/fixture")
	if len(findings) != 0 {
		dump(t, findings)
		t.Errorf("findings = %d, want 0", len(findings))
	}
}

// TestParseChecks pins the -checks flag: empty means every family, names
// are trimmed, and an unknown or empty list is an error.
func TestParseChecks(t *testing.T) {
	if got, err := parseChecks(""); got != nil || err != nil {
		t.Errorf(`parseChecks("") = %v, %v; want nil, nil`, got, err)
	}
	got, err := parseChecks("locks, obs")
	if want := map[string]bool{"locks": true, "obs": true}; err != nil || !maps.Equal(got, want) {
		t.Errorf(`parseChecks("locks, obs") = %v, %v; want %v`, got, err, want)
	}
	for _, bad := range []string{"walker", ",", "locks,nope"} {
		if _, err := parseChecks(bad); err == nil {
			t.Errorf("parseChecks(%q) succeeded; want an error", bad)
		}
	}
}

// The unused fixture is a small module tree: cmd/app and bench/ are its
// binaries, internal/lib has one test file, and internal/orphan is
// imported by that test alone.
func TestUnusedFindsWhatOnlyTestsReach(t *testing.T) {
	var got []string
	for _, f := range lintTree(t, filepath.Join("testdata", "unused")) {
		if f.Check == "unused" {
			got = append(got, f.Msg)
		}
	}
	slices.Sort(got)
	// Not reported: asValue (used as a value), thing.Name (named by the
	// interface call's selector), Kept (allow directive), FromBench
	// (bench/ is a caller), bench's own benchOnly, and the Config fields
	// cmd/app sets by literal and by assignment or that carry a directive.
	want := []string{
		"Config.Defaulted is set by no non-test file outside its package",
		"Config.TestOnly is set by no non-test file outside its package",
		"OnlyTested has no caller outside tests",
		"package vizq/internal/orphan is imported by no non-test file outside it",
		"recurse has no caller outside tests",
		"thing.Orphan has no caller outside tests",
	}
	if !slices.Equal(got, want) {
		t.Errorf("unused findings = %q, want %q", got, want)
	}
}

// TestRepoIsClean runs the full analysis over the repository and demands
// zero findings — the same gate scripts/check.sh enforces.
func TestRepoIsClean(t *testing.T) {
	for _, f := range lintTree(t, filepath.Join("..", "..")) {
		t.Errorf("unexpected finding: %s", f)
	}
}
