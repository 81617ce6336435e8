package main

import (
	"fmt"
	"go/ast"
)

// checkRelease instantiates the must-release engine (dataflow.go) for the
// pooled resources this codebase leaks in practice:
//
//   - connection.Pool: every Acquire must be paired with Release or
//     Discard on every path (or handed to someone who will);
//   - single-flight leader slots: a caller that Join leads must Finish the
//     call before it returns (or hand it to someone who will), or every
//     later caller for that key waits on a call that never finishes;
//   - breaker probe slots: allow() admitting a half-open probe must be
//     balanced by releaseProbe, RecordSuccess or RecordFailure — the
//     PR 4 probe-leak class, promoted from a one-off fix to a check;
//   - scheduler queue entries: a waiter enqueued under the fair-queuing
//     rings (enqueueLocked) must be dequeued by the grant path (waiting
//     on its ready channel counts as the hand-off) or removed again
//     (removeLocked) — a forgotten entry eats a WRR turn forever and a
//     slot granted to it vanishes.
//
// It also flags discarding the probe result of allow() outright
// (`ok, _ := b.allow()`): a caller that cannot see it held a probe slot
// cannot release it.
func checkRelease(pkg *pkgInfo, fi *fileInfo) []Finding {
	var out []Finding
	for _, spec := range []*resourceSpec{poolSpec, flightSpec, probeSpec, schedSpec} {
		out = append(out, runReleaseCheck(pkg, fi, spec)...)
	}
	out = append(out, checkProbeDiscard(pkg, fi)...)
	return out
}

// --- pooled connections -------------------------------------------------

var poolSpec = &resourceSpec{
	check:   "release",
	acquire: poolAcquire,
	release: poolRelease,
	// Connections are used by calling methods on them; none of those is an
	// escape.
	anyMethodOk: true,
	leakReturn: func(name string) string {
		return fmt.Sprintf("return path leaks pooled connection %s (missing Release/Discard)", name)
	},
	leakExit: func(name string) string {
		return fmt.Sprintf("pooled connection %s is never returned on the fall-through path (missing Release/Discard)", name)
	},
	reboundMsg: func(name string) string {
		return fmt.Sprintf("connection %s re-acquired before being released", name)
	},
}

// poolAcquire recognizes `c, err := x.Acquire(ctx)`. The paired error name
// exempts the acquisition's own error-return path.
func poolAcquire(as *ast.AssignStmt) *acquired {
	if len(as.Rhs) != 1 || len(as.Lhs) != 2 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Acquire" {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	acq := &acquired{name: id.Name}
	if errID, ok := as.Lhs[1].(*ast.Ident); ok && errID.Name != "_" {
		acq.errName = errID.Name
	}
	return acq
}

// poolRelease recognizes `x.Release(c)` and `x.Discard(c)` for a tracked c.
func poolRelease(call *ast.CallExpr, st flowState) []string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Release" && sel.Sel.Name != "Discard") || len(call.Args) != 1 {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	if _, tracked := st[id.Name]; !tracked {
		return nil
	}
	return []string{id.Name}
}

// --- single-flight leader slots -----------------------------------------

var flightSpec = &resourceSpec{
	check:   "release",
	acquire: flightAcquire,
	release: flightRelease,
	leakReturn: func(name string) string {
		return fmt.Sprintf("return path leaves single-flight call %s unfinished (missing Finish; followers wait forever)", name)
	},
	leakExit: func(name string) string {
		return fmt.Sprintf("single-flight call %s is never finished on the fall-through path (followers wait forever)", name)
	},
}

// flightAcquire recognizes `c, leader := x.Join(key)`. The call is only the
// caller's to finish when it leads: the branch where leader is false (a
// follower) holds nothing.
func flightAcquire(as *ast.AssignStmt) *acquired {
	if len(as.Rhs) != 1 || len(as.Lhs) != 2 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Join" || len(call.Args) != 1 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	acq := &acquired{name: id.Name}
	if leader, ok := as.Lhs[1].(*ast.Ident); ok && leader.Name != "_" {
		acq.guard = leader.Name
	}
	return acq
}

// flightRelease recognizes `x.Finish(key, c, ...)` for a tracked c.
func flightRelease(call *ast.CallExpr, st flowState) []string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Finish" {
		return nil
	}
	var names []string
	for _, a := range call.Args {
		if id, ok := a.(*ast.Ident); ok {
			if _, tracked := st[id.Name]; tracked {
				names = append(names, id.Name)
			}
		}
	}
	return names
}

// --- breaker probe slots ------------------------------------------------

var probeSpec = &resourceSpec{
	check:   "release",
	acquire: probeAcquire,
	release: probeRelease,
	leakReturn: func(name string) string {
		return fmt.Sprintf("return path leaks half-open probe slot %s (missing releaseProbe/RecordSuccess/RecordFailure)", name)
	},
	leakExit: func(name string) string {
		return fmt.Sprintf("half-open probe slot %s is never released on the fall-through path (missing releaseProbe/RecordSuccess/RecordFailure)", name)
	},
}

// probeAcquire recognizes `ok, probe := x.allow()`. The probe token is
// boolean: branches where it (or the paired ok) is provably false did not
// admit a probe slot, so the token dies on those edges.
func probeAcquire(as *ast.AssignStmt) *acquired {
	if len(as.Rhs) != 1 || len(as.Lhs) != 2 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "allow" || len(call.Args) != 0 {
		return nil
	}
	probeID, ok := as.Lhs[1].(*ast.Ident)
	if !ok || probeID.Name == "_" {
		return nil // discarded probe result is checkProbeDiscard's finding
	}
	acq := &acquired{name: probeID.Name, guardSelf: true}
	if okID, ok := as.Lhs[0].(*ast.Ident); ok && okID.Name != "_" {
		acq.guard = okID.Name
	}
	return acq
}

// probeRelease recognizes the breaker outcome calls. Each one settles the
// probe slot regardless of which token held it, so they release every
// live token (release-all semantics).
func probeRelease(call *ast.CallExpr, st flowState) []string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return nil
	}
	switch sel.Sel.Name {
	case "releaseProbe", "RecordSuccess", "RecordFailure":
	default:
		return nil
	}
	var names []string
	for name := range st {
		names = append(names, name)
	}
	return names
}

// --- scheduler queue entries ---------------------------------------------

var schedSpec = &resourceSpec{
	check:   "release",
	acquire: schedAcquire,
	release: schedRelease,
	leakReturn: func(name string) string {
		return fmt.Sprintf("return path leaves waiter %s enqueued (missing removeLocked; the ring keeps a dead entry and a granted slot can vanish)", name)
	},
	leakExit: func(name string) string {
		return fmt.Sprintf("waiter %s is never dequeued or removed on the fall-through path (the ring keeps a dead entry)", name)
	},
}

// schedAcquire recognizes `w := s.enqueueLocked(...)`. Waiting on the
// waiter afterwards (`<-w.ready`) mentions the token and counts as the
// hand-off to the grant path, so only paths that abandon the waiter
// without ever touching it again are findings.
func schedAcquire(as *ast.AssignStmt) *acquired {
	if len(as.Rhs) != 1 || len(as.Lhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "enqueueLocked" {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return &acquired{name: id.Name}
}

// schedRelease recognizes `s.removeLocked(..., w)` for a tracked w.
func schedRelease(call *ast.CallExpr, st flowState) []string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "removeLocked" {
		return nil
	}
	var names []string
	for _, a := range call.Args {
		if id, ok := a.(*ast.Ident); ok {
			if _, tracked := st[id.Name]; tracked {
				names = append(names, id.Name)
			}
		}
	}
	return names
}

// checkProbeDiscard flags `ok, _ := x.allow()`: the probe result is the
// only evidence a half-open slot was admitted, so discarding it makes the
// slot unreleasable from this call site.
func checkProbeDiscard(pkg *pkgInfo, fi *fileInfo) []Finding {
	var out []Finding
	ast.Inspect(fi.File, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "allow" || len(call.Args) != 0 {
			return true
		}
		id, ok := as.Lhs[1].(*ast.Ident)
		if !ok || id.Name != "_" {
			return true
		}
		if fi.allowedAt(pkg.Fset, as.Pos(), "release") {
			return true
		}
		out = append(out, Finding{
			Pos:   pkg.Fset.Position(as.Pos()),
			Check: "release",
			Msg:   "probe result of allow() discarded; a half-open probe slot cannot be released by this caller",
		})
		return true
	})
	return out
}
