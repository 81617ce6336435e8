package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
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
	return runChecks(mod, pkg)
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

func TestLocksFiresOnBadCode(t *testing.T) {
	findings := lintFixture(t, "locks_bad.go", "vizq/internal/fixture")
	// Bump's early return, Total's call-chain re-lock, Twice's double
	// lock, and Set's fall-through exit.
	if got := countCheck(findings, "locks"); got != 4 {
		dump(t, findings)
		t.Errorf("locks findings = %d, want 4", got)
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
	findings := lintFixture(t, "goroutine_bad.go", "vizq/internal/tde/exec")
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
	findings := lintFixture(t, "errors_bad.go", "vizq/internal/kvstore")
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
	findings := lintFixture(t, "sleep_bad.go", "vizq/internal/fixture")
	if got := countCheck(findings, "sleep"); got != 1 {
		dump(t, findings)
		t.Errorf("sleep findings = %d, want 1", got)
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
	findings := lintFixture(t, "obs_bad.go", "vizq/internal/fixture")
	// EarlyReturn's bail-out, FallThrough's missing Finish, Restarted's
	// orphaned first span, and DeferOnlySometimes' undeferred branch.
	if got := countCheck(findings, "obs"); got != 4 {
		dump(t, findings)
		t.Errorf("obs findings = %d, want 4", got)
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
	findings := lintFixture(t, "ctxcancel_bad.go", "vizq/internal/fixture")
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
	findings := lintFixture(t, "lockorder_bad.go", "vizq/internal/fixture")
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
	findings := lintFixture(t, "atomics_bad.go", "vizq/internal/fixture")
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
	findings := lintFixture(t, "release_bad.go", "vizq/internal/fixture")
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

// TestRepoIsClean runs the full analysis over the repository and demands
// zero findings — the same gate scripts/check.sh enforces.
func TestRepoIsClean(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(wd, "..", "..")); err != nil {
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
	fset := token.NewFileSet()
	mod, err := loadModule(fset, dirs, modulePath("."))
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range mod.pkgs {
		for _, f := range runChecks(mod, pkg) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}
