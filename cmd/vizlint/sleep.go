package main

import (
	"go/ast"
	"strings"
)

// checkSleep flags time.Sleep, time.NewTimer and time.After in non-test
// code outside internal/clock: every wait goes through a clock.Clock, and
// sleeping is never a synchronization primitive. Simulation code (the
// remote server's latency model, the executor's simulated block reads)
// opts out per call site with a `//vizlint:allow sleep` directive that
// documents why the sleep is modeling time rather than hiding a race.
func checkSleep(pkg *pkgInfo, fi *fileInfo) []Finding {
	if strings.HasSuffix(pkg.ImportPath, "/internal/clock") {
		return nil
	}
	var out []Finding
	ast.Inspect(fi.File, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Sleep" && sel.Sel.Name != "NewTimer" && sel.Sel.Name != "After") {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "time" {
			return true
		}
		if fi.allowedAt(pkg.Fset, call.Pos(), "sleep") {
			return true
		}
		out = append(out, Finding{
			Pos:   pkg.Fset.Position(call.Pos()),
			Check: "sleep",
			Msg:   "time." + sel.Sel.Name + " used outside tests and internal/clock (wait on a clock.Clock, use channels/sync for coordination, or annotate simulation code with //vizlint:allow sleep)",
		})
		return true
	})
	return out
}
