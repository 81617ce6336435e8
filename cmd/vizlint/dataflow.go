package main

import (
	"go/ast"
	"go/token"
	"maps"
	"strings"
)

// This file is the generic must-release dataflow pass: a resource acquired
// on some path must be released on every path that leaves the function, or
// escape to someone else who will. The obs, ctxcancel, release and locks
// check families are all instantiations of this one engine, parameterized
// by a resourceSpec; none of them carries its own path-walking logic.
//
// The analysis runs on the CFG from cfg.go through solve, the one fixpoint
// loop (lockorder.go runs its may-hold pass through it too): a forward
// fixpoint whose state is the set of definitely-open resources (merge =
// intersection, so the engine favors missed findings over false
// positives), followed by a single reporting pass over the stabilized
// block-entry states.

// acquired describes one resource binding recognized by a spec.
type acquired struct {
	// name is the tracked token: a variable name ("sp", "cancel", "c") or
	// a selector path for container-keyed resources ("f.calls").
	name string
	// errName, when non-empty, is the paired error result: a return whose
	// results mention it is treated as the acquisition's own error path
	// (the resource was never produced) and is not reported.
	errName string
	// guard, when non-empty, is a paired boolean result: on a branch edge
	// where guard is false the token was never really acquired and dies.
	guard string
	// guardSelf marks the token itself as a boolean: a branch edge where
	// the token is false kills it (e.g. `if probe { releaseProbe() }`).
	guardSelf bool
	// via, when non-empty, names the call whose callee acquires the token
	// and releases it again before returning: the call collides with an
	// open token but leaves none open.
	via string
}

// resourceSpec parameterizes the must-release pass.
type resourceSpec struct {
	check string

	// acquire recognizes an assignment that binds a resource, or nil.
	acquire func(*ast.AssignStmt) *acquired
	// acquireCall, when set, returns the tokens a call acquires in place
	// (x.mu.Lock()). Acquiring one that is still open blocks at the call,
	// so that call is where reboundMsg is reported, deferred release or not.
	acquireCall func(*ast.CallExpr) []acquired
	// release returns the token names a call releases. It receives the
	// live state so specs with release-all semantics (breaker Record*)
	// can return every live token.
	release func(*ast.CallExpr, flowState) []string
	// ownMethods are method names on the token that are uses, not
	// escapes (sp.Duration). anyMethodOk treats every method call on the
	// token as a use (pooled connections).
	ownMethods  map[string]bool
	anyMethodOk bool
	// ownFields are fields of the token whose read is a use, not an
	// escape (sp.Name).
	ownFields map[string]bool
	// pinned tokens never escape: no mention hands them to someone else
	// (a mutex stays the function's to unlock).
	pinned bool

	leakReturn func(name string) string
	leakExit   func(name string) string
	// reboundMsg, when non-nil, reports re-acquiring a still-open token.
	reboundMsg func(name string) string
}

// resState is one open resource on the current path.
type resState struct {
	pos       token.Pos
	viaDefer  bool
	errName   string
	guard     string
	guardSelf bool
}

type flowState map[string]resState

func cloneFlow(s flowState) flowState { return maps.Clone(s) }

// releasePass runs one spec over one file's functions.
type releasePass struct {
	pkg  *pkgInfo
	fi   *fileInfo
	spec *resourceSpec
	out  *[]Finding
}

// runReleaseCheck applies spec to every function declaration and function
// literal in the file; literals run on their own schedule, so each body is
// analyzed as an independent function.
func runReleaseCheck(pkg *pkgInfo, fi *fileInfo, spec *resourceSpec) []Finding {
	var out []Finding
	rp := &releasePass{pkg: pkg, fi: fi, spec: spec, out: &out}
	for _, decl := range fi.File.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		rp.runFunc(fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				rp.runFunc(lit.Body)
			}
			return true
		})
	}
	return out
}

func (rp *releasePass) report(pos token.Pos, msg string) {
	if rp.fi.allowedAt(rp.pkg.Fset, pos, rp.spec.check) {
		return
	}
	*rp.out = append(*rp.out, Finding{
		Pos:   rp.pkg.Fset.Position(pos),
		Check: rp.spec.check,
		Msg:   msg,
	})
}

// runFunc runs the fixpoint then the reporting pass over one body.
func (rp *releasePass) runFunc(body *ast.BlockStmt) {
	g := rp.pkg.cfgOf(body)
	in := solve(g, intersectFlow, rp.transfer)
	// Fall-off-the-end exit: everything still definitely open leaked.
	if st := in[g.exit.id]; st != nil {
		for name, rs := range st {
			if !rs.viaDefer {
				rp.report(rs.pos, rp.spec.leakExit(name))
			}
		}
	}
}

// solve is the fixpoint loop every path analysis shares. It runs
// transfer forward from an empty entry state until the block-entry states
// settle — merge joins a state reaching a block into the one already there
// and reports whether that changed it — then runs transfer once more over
// every reachable block with report set. It returns the settled entry
// states; nil marks an unreachable block.
func solve(g *cfg, merge func(into, from flowState) bool,
	transfer func(blk *cfgBlock, st flowState, report bool) flowState) []flowState {
	in := make([]flowState, len(g.blocks))
	in[g.entry.id] = flowState{}
	work := []*cfgBlock{g.entry}
	for len(work) > 0 {
		blk := work[len(work)-1]
		work = work[:len(work)-1]
		out := transfer(blk, cloneFlow(in[blk.id]), false)
		for _, e := range blk.succs {
			st := refineEdge(out, e)
			if in[e.to.id] == nil {
				in[e.to.id] = cloneFlow(st)
			} else if !merge(in[e.to.id], st) {
				continue
			}
			work = append(work, e.to)
		}
	}
	for _, blk := range g.blocks {
		if in[blk.id] != nil {
			transfer(blk, cloneFlow(in[blk.id]), true)
		}
	}
	return in
}

// intersectFlow keeps in into only the tokens open on both paths (must-
// open). viaDefer survives only when every path scheduled the release.
func intersectFlow(into, from flowState) bool {
	changed := false
	for k, v := range into {
		fv, ok := from[k]
		if !ok {
			delete(into, k)
			changed = true
			continue
		}
		if v.viaDefer && !fv.viaDefer {
			v.viaDefer = false
			into[k] = v
			changed = true
		}
	}
	return changed
}

// refineEdge kills boolean-guarded tokens on the branch where their guard
// is false: `if !allowed { ... }` proves no probe slot was admitted.
func refineEdge(st flowState, e cfgEdge) flowState {
	if e.cond == nil || e.sense {
		return st
	}
	var killed []string
	for name, rs := range st {
		if (rs.guardSelf && name == e.cond.Name) || (rs.guard != "" && rs.guard == e.cond.Name) {
			killed = append(killed, name)
		}
	}
	if killed == nil {
		return st
	}
	out := cloneFlow(st)
	for _, k := range killed {
		delete(out, k)
	}
	return out
}

// transfer interprets one block's nodes. When report is true the pass has
// stabilized and leaks/rebinds are reported.
func (rp *releasePass) transfer(blk *cfgBlock, st flowState, report bool) flowState {
	for _, n := range blk.nodes {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				rp.scan(r, st, report)
			}
			if rp.spec.acquire == nil {
				break
			}
			if acq := rp.spec.acquire(x); acq != nil {
				if old, ok := st[acq.name]; ok && !old.viaDefer && report && rp.spec.reboundMsg != nil {
					rp.report(old.pos, rp.spec.reboundMsg(acq.name))
				}
				st[acq.name] = resState{
					pos:       x.Pos(),
					errName:   acq.errName,
					guard:     acq.guard,
					guardSelf: acq.guardSelf,
				}
			}

		case *ast.ExprStmt:
			rp.scan(x.X, st, report)

		case *ast.DeferStmt:
			rp.handleDefer(x, st)

		case *ast.GoStmt:
			// A goroutine capturing the token may release it on its own
			// schedule.
			rp.dropMentioned(x.Call, st)

		case *ast.SendStmt:
			rp.scan(x.Chan, st, report)
			rp.scan(x.Value, st, report)

		case *ast.DeclStmt:
			if gd, ok := x.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							rp.scan(v, st, report)
						}
					}
				}
			}

		case *ast.IncDecStmt, *ast.EmptyStmt:
			// no effect

		case *ast.ReturnStmt:
			rp.atReturn(x, st, report)

		case ast.Expr:
			// Conditions, switch tags, case expressions.
			rp.scan(x, st, report)

		case ast.Stmt:
			// Comm clauses and type-switch assigns already appear as their
			// concrete types above; anything else is inert.
		}
	}
	return st
}

// atReturn applies return semantics: the acquisition's own error path is
// silent, the results are evaluated, returned tokens escape, everything
// else still open is a leak.
func (rp *releasePass) atReturn(ret *ast.ReturnStmt, st flowState, report bool) {
	for name, rs := range st {
		if rs.errName != "" && mentionsIdent(ret.Results, rs.errName) {
			delete(st, name)
		}
	}
	for _, r := range ret.Results {
		rp.scan(r, st, report)
		rp.dropMentioned(r, st)
	}
	if !report {
		return
	}
	for name, rs := range st {
		if !rs.viaDefer {
			rp.report(rs.pos, rp.spec.leakReturn(name))
		}
	}
}

// handleDefer processes `defer release(...)` (direct or wrapped in a
// function literal): the token stays open for ordering purposes but is
// released on every return path. Any other defer the token reaches is an
// escape.
func (rp *releasePass) handleDefer(d *ast.DeferStmt, st flowState) {
	schedule := func(names []string) {
		for _, name := range names {
			if rs, ok := st[name]; ok {
				rs.viaDefer = true
				st[name] = rs
			}
		}
	}
	if names := rp.spec.release(d.Call, st); len(names) > 0 {
		schedule(names)
		return
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if names := rp.spec.release(call, st); len(names) > 0 {
					schedule(names)
				}
			}
			return true
		})
		return
	}
	rp.dropMentioned(d.Call, st)
}

// scan walks an expression: release calls release, acquiring calls
// acquire, method calls on the token are uses, any other mention is an
// escape — the token flows somewhere the checker cannot follow and is
// assumed released there.
func (rp *releasePass) scan(e ast.Expr, st flowState, report bool) {
	if e == nil || (len(st) == 0 && rp.spec.acquireCall == nil) {
		return
	}
	skip := make(map[ast.Node]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		if n == nil || skip[n] {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			for _, name := range rp.spec.release(x, st) {
				delete(st, name)
			}
			rp.acquireAt(x, st, report)
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if _, tracked := st[id.Name]; tracked &&
						(rp.spec.anyMethodOk || rp.spec.ownMethods[sel.Sel.Name]) {
						skip[sel] = true // method use on the token
					}
				}
			}
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && rp.spec.ownFields[x.Sel.Name] {
				if _, tracked := st[id.Name]; tracked {
					return false // field read on the token
				}
			}
			if key := exprKey(x); key != "" {
				rp.escape(key, st)
				// The field name itself is not a variable mention.
				skip[x.Sel] = true
			}
		case *ast.Ident:
			rp.escape(x.Name, st)
		case *ast.FuncLit:
			rp.dropMentioned(x, st)
			return false
		}
		return true
	})
}

// acquireAt opens the tokens a call acquires in place. A token still open
// is reported at the call; a callee's acquire (via) leaves nothing open.
func (rp *releasePass) acquireAt(call *ast.CallExpr, st flowState, report bool) {
	if rp.spec.acquireCall == nil {
		return
	}
	for _, acq := range rp.spec.acquireCall(call) {
		if _, open := st[acq.name]; open && report {
			msg := rp.spec.reboundMsg(acq.name)
			if acq.via != "" {
				msg = "call to " + acq.via + ": " + msg
			}
			rp.report(call.Pos(), msg)
		}
		if acq.via == "" {
			st[acq.name] = resState{pos: call.Pos()}
		}
	}
}

// escape drops a mentioned token unless the spec pins its tokens.
func (rp *releasePass) escape(name string, st flowState) {
	if !rp.spec.pinned {
		delete(st, name)
	}
}

// dropMentioned drops every token mentioned anywhere under n (returns,
// goroutines, captured closures), including selector-keyed tokens whose
// base identifier is mentioned, unless the spec pins its tokens.
func (rp *releasePass) dropMentioned(n ast.Node, st flowState) {
	if n == nil || len(st) == 0 || rp.spec.pinned {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		delete(st, id.Name)
		for k := range st {
			if strings.HasPrefix(k, id.Name+".") {
				delete(st, k)
			}
		}
		return true
	})
}

// mentionsIdent reports whether any expression mentions an identifier
// with the given name.
func mentionsIdent(exprs []ast.Expr, name string) bool {
	found := false
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
			}
			return !found
		})
	}
	return found
}
