package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module: every package loaded together plus a
// module-wide call graph. The interprocedural checks (lockorder) propagate
// facts over the graph; per-package checks keep working on one pkgInfo at
// a time.
//
// Resolution is what stdlib-only typing can support: identifier calls bind
// to same-package functions, method calls resolve through go/types when
// the receiver's type is a package-local named type, and pkg.Func calls on
// module-local imports cross package boundaries. Method calls on types
// from other packages are invisible (their types are stubbed), which keeps
// the graph an under-approximation — propagation misses edges rather than
// inventing them.

// funcKey identifies a function module-wide: "importPath::Name" for plain
// functions, "importPath::Type.Name" for methods.
func funcKey(importPath, recvType, name string) string {
	if recvType != "" {
		return importPath + "::" + recvType + "." + name
	}
	return importPath + "::" + name
}

// funcInfo is one function declaration in the module.
type funcInfo struct {
	key      string
	pkg      *pkgInfo
	fi       *fileInfo
	decl     *ast.FuncDecl
	recvType string
}

// module is the whole analyzed tree.
type module struct {
	path   string
	fset   *token.FileSet
	pkgs   []*pkgInfo
	byPath map[string]*pkgInfo

	funcs   map[string]*funcInfo
	callees map[string][]string // funcKey -> sorted unique callee keys

	// lockFindings caches the module-wide lockorder analysis, bucketed by
	// package import path (see lockorder.go).
	lockFindings map[string][]Finding
	// lockSums caches the per-function lock summaries lockorder and locks
	// share (see lockorder.go).
	lockSums map[string]*fnSummary
	// refs caches the unused family's reference index (see unused.go).
	refs map[string]bool
}

// loadModule parses every directory into packages and builds the call
// graph. Directories without non-test Go files are skipped.
func loadModule(fset *token.FileSet, dirs []string, modPath string) (*module, error) {
	m := &module{path: modPath, fset: fset, byPath: make(map[string]*pkgInfo)}
	for _, dir := range dirs {
		pkg, err := loadPackage(fset, dir, modPath)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue
		}
		m.pkgs = append(m.pkgs, pkg)
		m.byPath[pkg.ImportPath] = pkg
	}
	m.buildCallGraph()
	return m, nil
}

func (m *module) buildCallGraph() {
	m.funcs = make(map[string]*funcInfo)
	m.callees = make(map[string][]string)
	for _, pkg := range m.pkgs {
		for _, fi := range pkg.Files {
			for _, decl := range fi.File.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				_, recvType := receiverOf(fd)
				key := funcKey(pkg.ImportPath, recvType, fd.Name.Name)
				m.funcs[key] = &funcInfo{key: key, pkg: pkg, fi: fi, decl: fd, recvType: recvType}
			}
		}
	}
	for _, fn := range m.funcs {
		if fn.decl.Body == nil {
			continue
		}
		seen := make(map[string]bool)
		// Goroutine bodies run on their own schedule: their calls are not
		// the caller's synchronous callees.
		inspectSkippingGo(fn.decl.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if callee := m.resolveCallee(fn.pkg, fn.fi, call); callee != "" && !seen[callee] {
				seen[callee] = true
				m.callees[fn.key] = append(m.callees[fn.key], callee)
			}
		})
		sort.Strings(m.callees[fn.key])
	}
}

// inspectSkippingGo walks n, skipping go-statement subtrees.
func inspectSkippingGo(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.GoStmt); ok {
			return false
		}
		if x != nil {
			visit(x)
		}
		return true
	})
}

// resolveCallee maps a call expression to a funcKey, or "".
func (m *module) resolveCallee(pkg *pkgInfo, fi *fileInfo, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		key := funcKey(pkg.ImportPath, "", fun.Name)
		if _, ok := m.funcs[key]; ok {
			return key
		}
	case *ast.SelectorExpr:
		// pkg.Func on a module-local import.
		if id, ok := fun.X.(*ast.Ident); ok {
			if path, ok := fi.imports[id.Name]; ok {
				key := funcKey(path, "", fun.Sel.Name)
				if _, ok := m.funcs[key]; ok {
					return key
				}
				return ""
			}
		}
		// Method call: resolve the receiver's type.
		if tn := namedTypeOf(pkg, fun.X); tn != "" {
			key := funcKey(pkg.ImportPath, tn, fun.Sel.Name)
			if _, ok := m.funcs[key]; ok {
				return key
			}
		}
	}
	return ""
}

// namedTypeOf resolves an expression to the name of a package-local named
// type (dereferencing pointers), or "".
func namedTypeOf(pkg *pkgInfo, e ast.Expr) string {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		// Identifiers bound to receivers/locals sometimes only appear in
		// Uses/Defs.
		if id, isIdent := e.(*ast.Ident); isIdent {
			if obj := pkg.Info.Uses[id]; obj != nil {
				return namedTypeName(obj.Type())
			}
			if obj := pkg.Info.Defs[id]; obj != nil {
				return namedTypeName(obj.Type())
			}
		}
		return ""
	}
	return namedTypeName(tv.Type)
}

func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil {
		return ""
	}
	return named.Obj().Name()
}

// shortFuncName renders a funcKey for messages: "Type.Method" or "Func"
// with the package's last path segment prefixed when it differs from the
// reporting package.
func shortFuncName(key, fromImportPath string) string {
	path, name, ok := strings.Cut(key, "::")
	if !ok {
		return key
	}
	if path == fromImportPath {
		return name
	}
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return path + "." + name
}
