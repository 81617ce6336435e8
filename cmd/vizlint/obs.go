package main

import (
	"fmt"
	"go/ast"
)

// checkObs verifies that every span started with obs.StartSpan is finished
// on every return path: a span whose Finish never runs is dropped from the
// trace and, worse, its children are silently re-rooted — the stage
// breakdown then under-reports exactly the code path that bailed early.
//
// The check is an instantiation of the shared must-release engine
// (dataflow.go) over the function CFG (cfg.go). A span that escapes the
// function (passed to a call, returned, reassigned, captured by a
// goroutine) is assumed finished elsewhere and dropped from tracking;
// reading one of its fields hands nothing over.
func checkObs(pkg *pkgInfo, fi *fileInfo) []Finding {
	return runReleaseCheck(pkg, fi, obsSpec)
}

// spanMethods are *obs.Span methods whose receiver use is not an escape.
var spanMethods = map[string]bool{
	"Finish": true, "Duration": true, "Children": true,
}

// spanFields are obs.Span fields whose read is a use, not an escape.
var spanFields = map[string]bool{"Name": true, "Start": true, "End": true}

var obsSpec = &resourceSpec{
	check:      "obs",
	acquire:    startSpanAcquire,
	release:    finishRelease,
	ownMethods: spanMethods,
	ownFields:  spanFields,
	leakReturn: func(name string) string {
		return fmt.Sprintf("return path leaves span %s unfinished (missing %s.Finish(); prefer defer)", name, name)
	},
	leakExit: func(name string) string {
		return fmt.Sprintf("span %s is never finished on the fall-through path (missing %s.Finish(); prefer defer)", name, name)
	},
	reboundMsg: func(name string) string {
		return fmt.Sprintf("span %s restarted before being finished", name)
	},
}

// startSpanAcquire recognizes `ctx, sp := obs.StartSpan(...)`.
func startSpanAcquire(as *ast.AssignStmt) *acquired {
	if len(as.Rhs) != 1 || len(as.Lhs) != 2 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "StartSpan" {
		return nil
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "obs" {
		return nil
	}
	id, ok := as.Lhs[1].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return &acquired{name: id.Name}
}

// finishRelease recognizes `sp.Finish()`.
func finishRelease(call *ast.CallExpr, _ flowState) []string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Finish" || len(call.Args) != 0 {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return []string{id.Name}
}
