package main

import (
	"fmt"
	"go/ast"
)

// checkCtxCancel verifies that the cancel function returned by
// context.WithTimeout / context.WithDeadline is called on every return
// path: a dropped cancel leaks the context's timer and its done channel
// until the deadline fires. go vet's lostcancel already flags an early
// return or a defer on one branch only; what it misses is a cancel rebound
// before it is called, and one "used" only by `_ = cancel`.
//
// The check is an instantiation of the shared must-release engine
// (dataflow.go) over the function CFG (cfg.go). A cancel func that escapes
// the function (passed to a call, returned, captured by a goroutine,
// stored in a struct) is assumed called elsewhere and dropped from
// tracking.
func checkCtxCancel(pkg *pkgInfo, fi *fileInfo) []Finding {
	return runReleaseCheck(pkg, fi, ctxCancelSpec)
}

var ctxCancelSpec = &resourceSpec{
	check:   "ctxcancel",
	acquire: withCancelAcquire,
	release: cancelCallRelease,
	leakReturn: func(name string) string {
		return fmt.Sprintf("return path leaves context cancel func %s uncalled (missing %s(); prefer defer)", name, name)
	},
	leakExit: func(name string) string {
		return fmt.Sprintf("context cancel func %s is never called on the fall-through path (missing %s(); prefer defer)", name, name)
	},
	reboundMsg: func(name string) string {
		return fmt.Sprintf("cancel func %s rebound before being called", name)
	},
}

// withCancelAcquire recognizes `ctx, cancel := context.WithTimeout(...)`
// (or WithDeadline), covering both := and = forms.
func withCancelAcquire(as *ast.AssignStmt) *acquired {
	if len(as.Rhs) != 1 || len(as.Lhs) != 2 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "WithTimeout" && sel.Sel.Name != "WithDeadline") {
		return nil
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "context" {
		return nil
	}
	id, ok := as.Lhs[1].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return &acquired{name: id.Name}
}

// cancelCallRelease recognizes a bare `cancel()` call on a tracked name.
func cancelCallRelease(call *ast.CallExpr, st flowState) []string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	if _, tracked := st[id.Name]; !tracked {
		return nil
	}
	return []string{id.Name}
}
