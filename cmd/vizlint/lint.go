// vizlint is a project-specific static analyzer for vizq's concurrent
// query stack. It is stdlib-only (go/ast + go/parser + go/types) and
// implements ten check families tuned to this codebase's hazards:
//
//	locks     – a function that calls mu.Lock() must release it on every
//	            path out (prefer defer); locking a mutex the path already
//	            holds, directly or through a method on the same receiver
//	            that locks it, is flagged.
//	goroutine – `go func` literals must not write receiver fields without
//	            the receiver's mutex; goroutines in the exec/dataserver/
//	            remote/wire packages must have a join or cancellation
//	            signal.
//	errors    – Close/Flush/Write error results must not be silently
//	            discarded in the storage, kvstore and wire packages; fmt.Errorf
//	            wrapping an error variable must use %w.
//	sleep     – time.Sleep, time.NewTimer and time.After wait off the clock:
//	            only internal/clock, tests and simulation code use them.
//	obs       – a span started with obs.StartSpan must be finished on
//	            every return path (prefer defer sp.Finish()); spans that
//	            escape the function are assumed finished elsewhere.
//	ctxcancel – the cancel func from context.WithTimeout/WithDeadline
//	            must be called on every return path (prefer defer
//	            cancel()); cancels that escape are assumed called
//	            elsewhere.
//	lockorder – locks acquired in inconsistent orders across the module's
//	            call graph (a cycle in the lock-order graph is a potential
//	            deadlock), and locks held across blocking operations
//	            (channel ops, select without default, Wait, time.Sleep,
//	            or a call that transitively does one of those).
//	atomics   – struct fields accessed both through sync/atomic and with
//	            plain loads/stores: the plain side races with every
//	            atomic update.
//	release   – pooled resources must be returned on every path:
//	            connection.Pool Acquire/Release-or-Discard, single-flight
//	            leader slots (map registration/delete), and breaker
//	            half-open probe slots (allow/releaseProbe-or-Record*).
//	unused    – a package-level function or method under internal/ or
//	            cmd/ that no non-test file references, an internal/
//	            package that no other package's non-test file imports,
//	            and an exported field of an internal/ ...Config or
//	            ...Options struct that no other package's non-test file
//	            sets.
//
// The obs, ctxcancel, release and locks families are specs on one shared
// must-release dataflow engine (dataflow.go) running over a per-function
// CFG (cfg.go); lockorder shares the engine's fixpoint loop and
// additionally propagates held-lock sets through a module-wide call graph
// (callgraph.go, lockorder.go), whose lock summaries locks reads too.
//
// Flags: -json emits findings as JSON objects, one per line, with path,
// line, col, check and msg fields; -checks a,b,c restricts output to the
// named families.
//
// A finding can be suppressed with a directive comment on the same line
// or the line above:
//
//	//vizlint:allow sleep -- simulated wire latency
//
// The directive names one or more checks (locks, goroutine, errors,
// sleep, obs, ctxcancel, lockorder, atomics, release, unused, or all);
// text after "--" is an optional justification.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Finding is one reported problem.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Check, f.Msg)
}

// fileInfo is one parsed non-test source file plus its suppression
// directives and module-local import bindings.
type fileInfo struct {
	Path  string
	File  *ast.File
	allow map[int]map[string]bool // line -> check names allowed
	// imports maps local import names to module-local import paths
	// (cross-package call resolution).
	imports map[string]string
}

// pkgInfo is one directory's package with the indexes the checks share.
type pkgInfo struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*fileInfo
	Info       *types.Info // sparsely populated; imports are stubbed

	// mutexFields: struct type name -> field names of sync.Mutex/RWMutex
	// type (including pointers to them).
	mutexFields map[string]map[string]bool
	cfgs        map[*ast.BlockStmt]*cfg
}

// cfgOf builds body's CFG once; every path check and lockorder share it.
func (p *pkgInfo) cfgOf(body *ast.BlockStmt) *cfg {
	if p.cfgs[body] == nil {
		p.cfgs[body] = buildCFG(body)
	}
	return p.cfgs[body]
}

// loadPackage parses every non-test .go file in dir as one package and
// builds the shared indexes. Returns nil if the directory holds no
// non-test Go files.
func loadPackage(fset *token.FileSet, dir, modPath string) (*pkgInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*fileInfo
	var astFiles []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, &fileInfo{
			Path:    path,
			File:    f,
			allow:   buildAllow(fset, f),
			imports: moduleImports(f, modPath),
		})
		astFiles = append(astFiles, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(".", dir)
	if err != nil {
		rel = dir
	}
	importPath := filepath.ToSlash(rel)
	if modPath != "" && importPath != "." {
		importPath = modPath + "/" + importPath
	} else if importPath == "." {
		importPath = modPath
	}
	pkg := &pkgInfo{ImportPath: importPath, Fset: fset, Files: files}
	pkg.typeCheck(astFiles)
	pkg.buildIndexes()
	return pkg, nil
}

// typeCheck runs go/types over the package with stubbed-out imports.
// Cross-package selectors come back invalid, but identifiers bound to
// package-local declarations (receivers, locals, fields, error results of
// local functions) resolve, which is all the checks need.
func (p *pkgInfo) typeCheck(files []*ast.File) {
	p.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Error:    func(error) {}, // partial information is expected
		Importer: &stubImporter{pkgs: make(map[string]*types.Package)},
	}
	// Check mutates nothing on error thanks to the error handler; the
	// sparse Info maps are still useful.
	_, _ = conf.Check(p.ImportPath, p.Fset, files, p.Info)
}

// stubImporter satisfies every import with an empty, complete package so
// type checking can proceed without resolving dependencies.
type stubImporter struct {
	pkgs map[string]*types.Package
}

func (s *stubImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	pkg := types.NewPackage(path, name)
	pkg.MarkComplete()
	s.pkgs[path] = pkg
	return pkg, nil
}

// moduleImports maps each of a file's local import names to its import
// path, keeping only imports inside this module.
func moduleImports(f *ast.File, modPath string) map[string]string {
	out := make(map[string]string)
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if modPath == "" || (path != modPath && !strings.HasPrefix(path, modPath+"/")) {
			continue
		}
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "_" || name == "." {
			continue
		}
		out[name] = path
	}
	return out
}

// buildAllow indexes //vizlint:allow directives. A directive applies to
// its own line and the following line, so it can sit inline or above the
// statement it exempts.
func buildAllow(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	allow := make(map[int]map[string]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"))
			if !strings.HasPrefix(text, "vizlint:allow") {
				continue
			}
			rest := strings.TrimPrefix(text, "vizlint:allow")
			rest, _, _ = strings.Cut(rest, "--") // trailing justification
			line := fset.Position(c.Pos()).Line
			for _, name := range strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
				for _, l := range []int{line, line + 1} {
					if allow[l] == nil {
						allow[l] = make(map[string]bool)
					}
					allow[l][name] = true
				}
			}
		}
	}
	return allow
}

// allowedAt reports whether a directive exempts check at pos.
func (fi *fileInfo) allowedAt(fset *token.FileSet, pos token.Pos, check string) bool {
	line := fset.Position(pos).Line
	m := fi.allow[line]
	return m != nil && (m[check] || m["all"])
}

// buildIndexes fills mutexFields and makes the CFG memo.
func (p *pkgInfo) buildIndexes() {
	p.mutexFields = make(map[string]map[string]bool)
	p.cfgs = make(map[*ast.BlockStmt]*cfg)
	for _, fi := range p.Files {
		ast.Inspect(fi.File, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !isMutexType(field.Type) {
					continue
				}
				if p.mutexFields[ts.Name.Name] == nil {
					p.mutexFields[ts.Name.Name] = make(map[string]bool)
				}
				for _, name := range field.Names {
					p.mutexFields[ts.Name.Name][name.Name] = true
				}
			}
			return true
		})
	}
}

// receiverOf extracts the receiver identifier and bare type name.
func receiverOf(fd *ast.FuncDecl) (name, typeName string) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "", ""
	}
	field := fd.Recv.List[0]
	if len(field.Names) > 0 {
		name = field.Names[0].Name
	}
	t := field.Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return name, x.Name
		default:
			return name, ""
		}
	}
}

// isMutexType matches sync.Mutex, sync.RWMutex and pointers to them.
func isMutexType(t ast.Expr) bool {
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "sync" && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex")
}

// exprKey renders a selector chain ("p.mu", "c.srv.mu") for use as a lock
// identity; unknown shapes return "".
func exprKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := exprKey(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprKey(x.X)
	case *ast.StarExpr:
		return exprKey(x.X)
	}
	return ""
}

// pathHasAny reports whether the package import path contains one of the
// fragments (used to scope checks to specific subsystems).
func pathHasAny(importPath string, frags ...string) bool {
	for _, f := range frags {
		if strings.Contains(importPath, f) {
			return true
		}
	}
	return false
}

// checkNames lists every check family, for -checks validation and docs.
var checkNames = []string{
	"locks", "goroutine", "errors", "sleep", "obs", "ctxcancel",
	"lockorder", "atomics", "release", "unused",
}

// runChecks applies every check family to one package of the module.
func runChecks(mod *module, pkg *pkgInfo) []Finding {
	var out []Finding
	for _, fi := range pkg.Files {
		out = append(out, checkLocks(mod, pkg, fi)...)
		out = append(out, checkGoroutines(pkg, fi)...)
		out = append(out, checkErrors(pkg, fi)...)
		out = append(out, checkSleep(pkg, fi)...)
		out = append(out, checkObs(pkg, fi)...)
		out = append(out, checkCtxCancel(pkg, fi)...)
		out = append(out, checkRelease(pkg, fi)...)
	}
	out = append(out, checkLockOrder(mod, pkg)...)
	out = append(out, checkAtomics(pkg)...)
	out = append(out, checkUnused(mod, pkg)...)
	return out
}
