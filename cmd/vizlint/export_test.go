package main

import (
	"go/ast"
	"go/token"
)

// moduleFor wraps already-loaded packages (fixture tests).
func moduleFor(fset *token.FileSet, modPath string, pkgs ...*pkgInfo) *module {
	m := &module{path: modPath, fset: fset, byPath: make(map[string]*pkgInfo)}
	for _, pkg := range pkgs {
		m.pkgs = append(m.pkgs, pkg)
		m.byPath[pkg.ImportPath] = pkg
	}
	m.buildCallGraph()
	return m
}

// returnStmt returns the block's terminating ReturnStmt, if any.
func (b *cfgBlock) returnStmt() *ast.ReturnStmt {
	if len(b.nodes) == 0 {
		return nil
	}
	r, _ := b.nodes[len(b.nodes)-1].(*ast.ReturnStmt)
	return r
}
