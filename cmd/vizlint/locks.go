package main

import (
	"fmt"
	"go/ast"
	"strings"
)

// checkLocks verifies that every mutex locked in a function is unlocked on
// every path out of it (prefer defer), and that no path locks a mutex it
// already holds — directly, or by calling a method on the same receiver
// whose lock summary (lockorder.go) says it locks that mutex.
//
// The check is an instantiation of the shared must-release engine
// (dataflow.go) over the function CFG (cfg.go). The token is the mutex's
// selector path (c.mu). A mutex is the function's to unlock whatever else
// mentions it, so tokens are pinned: no mention lets one escape.
func checkLocks(mod *module, pkg *pkgInfo, fi *fileInfo) []Finding {
	sums := mod.lockSummaries()
	return runReleaseCheck(pkg, fi, &resourceSpec{
		check: "locks",
		acquireCall: func(call *ast.CallExpr) []acquired {
			return lockAcquires(mod, sums, pkg, fi, call)
		},
		release: unlockRelease,
		pinned:  true,
		leakReturn: func(name string) string {
			return fmt.Sprintf("return path leaves %s locked (missing %s.Unlock(); prefer defer)", name, name)
		},
		leakExit: func(name string) string {
			return fmt.Sprintf("function exits with %s still locked (no Unlock on the fall-through path)", name)
		},
		reboundMsg: func(name string) string {
			return fmt.Sprintf("%s locked again while already held: deadlock", name)
		},
	})
}

// lockAcquires returns the mutexes a call locks: x.mu for `x.mu.Lock()`
// or `x.mu.RLock()`, and for a method call `x.M()` every x.f whose mutex
// field f M's summary may lock.
func lockAcquires(mod *module, sums map[string]*fnSummary, pkg *pkgInfo, fi *fileInfo, call *ast.CallExpr) []acquired {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	recv := exprKey(sel.X)
	if recv == "" {
		return nil
	}
	if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
		return []acquired{{name: recv}}
	}
	tName := namedTypeOf(pkg, sel.X)
	sum := sums[mod.resolveCallee(pkg, fi, call)]
	if tName == "" || sum == nil {
		return nil
	}
	prefix := pkg.ImportPath + "::" + tName + "."
	var out []acquired
	for id := range sum.acquires {
		if field, ok := strings.CutPrefix(id, prefix); ok {
			out = append(out, acquired{name: recv + "." + field, via: recv + "." + sel.Sel.Name + "()"})
		}
	}
	return out
}

// unlockRelease recognizes `x.mu.Unlock()` and `x.mu.RUnlock()`.
func unlockRelease(call *ast.CallExpr, _ flowState) []string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
		return nil
	}
	if base := exprKey(sel.X); base != "" {
		return []string{base}
	}
	return nil
}
