package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// checkLockOrder is the interprocedural deadlock check. It propagates
// may-hold lock sets through each function's CFG (union at merge points),
// extends them across calls using per-function summaries computed over the
// module call graph, and records a lock-acquisition-order edge every time
// a lock is taken while another is held. Two findings come out:
//
//   - a cycle in the order graph: two call chains that acquire the same
//     locks in opposite orders can deadlock under concurrency even though
//     each chain is individually correct;
//   - a lock held across a blocking operation (channel send/receive,
//     select without default, Wait, time.Sleep, or a call that may do
//     one of those): the lock's critical section is then bounded by
//     another goroutine's progress, which is how a slow follower stalls
//     every caller of the shard.
//
// Lock identity is type-normalized ("pkg::Type.field"), so s.mu on two
// different instances of the same struct is one lock for ordering
// purposes. Goroutine bodies, function literals and defers are excluded
// from path tracking: goroutines run on their own schedule, literals run
// when called (their synchronous calls still reach summaries through the
// call graph), and a deferred unlock keeps the lock held to the end of
// the function, which is exactly what the held set should say.
func checkLockOrder(mod *module, pkg *pkgInfo) []Finding {
	mod.ensureLockOrder()
	return mod.lockFindings[pkg.ImportPath]
}

// fnSummary is what a call site needs to know about a callee: the locks
// it (transitively) may acquire and whether it may block.
type fnSummary struct {
	acquires map[string]bool
	blocks   token.Pos // first blocking operation, NoPos if none
}

// lockEdge is one observed acquisition order: to was acquired while from
// was held. First observation wins; via names the callee when the edge
// came from a call rather than a direct Lock.
type lockEdge struct {
	from, to string
	pos      token.Pos
	pkg      *pkgInfo
	fi       *fileInfo
	via      string
}

// ensureLockOrder runs the module-wide analysis once and buckets findings
// by package, so per-package check invocations stay deduplicated.
func (m *module) ensureLockOrder() {
	if m.lockFindings != nil {
		return
	}
	m.lockFindings = make(map[string][]Finding)
	lo := &lockOrderPass{
		mod:   m,
		sums:  m.lockSummaries(),
		edges: make(map[string]map[string]*lockEdge),
	}
	for _, key := range sortedFuncKeys(m) {
		fn := m.funcs[key]
		if fn.decl.Body == nil {
			continue
		}
		lo.runFunc(fn)
	}
	lo.reportCycles()
	for path := range m.lockFindings {
		fs := m.lockFindings[path]
		sort.Slice(fs, func(i, j int) bool {
			a, b := fs[i].Pos, fs[j].Pos
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			return a.Offset < b.Offset
		})
	}
}

func sortedFuncKeys(m *module) []string {
	keys := make([]string, 0, len(m.funcs))
	for k := range m.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lockSummaries computes, once per module, the transitive may-acquire set
// and may-block flag for every function, by local collection followed by a
// fixpoint over the call graph. The locks check reads the acquire sets too.
func (m *module) lockSummaries() map[string]*fnSummary {
	if m.lockSums != nil {
		return m.lockSums
	}
	sums := make(map[string]*fnSummary, len(m.funcs))
	for key, fn := range m.funcs {
		sums[key] = localSummary(fn)
	}
	for changed := true; changed; {
		changed = false
		for key := range m.funcs {
			s := sums[key]
			for _, callee := range m.callees[key] {
				cs := sums[callee]
				if cs == nil {
					continue
				}
				for id := range cs.acquires {
					if !s.acquires[id] {
						s.acquires[id] = true
						changed = true
					}
				}
				if cs.blocks.IsValid() && !s.blocks.IsValid() {
					s.blocks = cs.blocks
					changed = true
				}
			}
		}
	}
	m.lockSums = sums
	return sums
}

// localSummary collects one function's direct lock acquisitions and
// blocking operations, skipping goroutine bodies.
func localSummary(fn *funcInfo) *fnSummary {
	s := &fnSummary{acquires: make(map[string]bool)}
	if fn.decl.Body == nil {
		return s
	}
	commOK := nonBlockingComms(fn.decl.Body)
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		if commOK[n] {
			return false // comm of a select with default: non-blocking
		}
		switch x := n.(type) {
		case *ast.SendStmt:
			s.noteBlock(x.Pos())
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.noteBlock(x.Pos())
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if id := lockIDOf(fn.pkg, sel.X); id != "" {
						s.acquires[id] = true
					}
				case "Wait":
					if len(x.Args) == 0 {
						s.noteBlock(x.Pos())
					}
				case "Sleep":
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
						s.noteBlock(x.Pos())
					}
				}
			}
		}
		return true
	})
	return s
}

func (s *fnSummary) noteBlock(pos token.Pos) {
	if !s.blocks.IsValid() {
		s.blocks = pos
	}
}

// nonBlockingComms marks the comm statements of selects that have a
// default clause: those sends and receives never block.
func nonBlockingComms(body ast.Node) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				out[cc.Comm] = true
			}
		}
		return true
	})
	return out
}

// lockIDOf resolves the receiver of a Lock/Unlock call to a type-
// normalized lock identity, or "". Selector receivers must name a mutex
// field of a package-local named type; bare identifiers must resolve to a
// package-level variable.
func lockIDOf(pkg *pkgInfo, recv ast.Expr) string {
	switch x := recv.(type) {
	case *ast.ParenExpr:
		return lockIDOf(pkg, x.X)
	case *ast.SelectorExpr:
		tName := namedTypeOf(pkg, x.X)
		if tName != "" && pkg.mutexFields[tName][x.Sel.Name] {
			return pkg.ImportPath + "::" + tName + "." + x.Sel.Name
		}
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return pkg.ImportPath + "::" + x.Name
		}
	}
	return ""
}

// lockLabel renders a lock identity for messages: "pkg.Type.field".
func lockLabel(id string) string {
	path, rest, ok := strings.Cut(id, "::")
	if !ok {
		return id
	}
	if i := strings.LastIndex(path, "/"); i >= 0 {
		path = path[i+1:]
	}
	return path + "." + rest
}

// lockOrderPass is the module-wide analysis state.
type lockOrderPass struct {
	mod  *module
	sums map[string]*fnSummary

	edges map[string]map[string]*lockEdge // from -> to -> first edge

	// per-function state
	fn     *funcInfo
	commOK map[ast.Node]bool
}

func (lo *lockOrderPass) report(pos token.Pos, msg string) {
	fi := lo.fn.fi
	pkg := lo.fn.pkg
	if fi.allowedAt(pkg.Fset, pos, "lockorder") {
		return
	}
	lo.mod.lockFindings[pkg.ImportPath] = append(lo.mod.lockFindings[pkg.ImportPath], Finding{
		Pos:   pkg.Fset.Position(pos),
		Check: "lockorder",
		Msg:   msg,
	})
}

// runFunc runs the may-hold fixpoint over one function's CFG, then a
// reporting sweep that records order edges and held-across-blocking
// findings with the stabilized entry states.
func (lo *lockOrderPass) runFunc(fn *funcInfo) {
	lo.fn = fn
	lo.commOK = nonBlockingComms(fn.decl.Body)
	solve(fn.pkg.cfgOf(fn.decl.Body), unionFlow, lo.transferBlock)
}

// unionFlow adds to into every lock held on from (may-hold).
func unionFlow(into, from flowState) bool {
	changed := false
	for k, v := range from {
		if _, ok := into[k]; !ok {
			into[k] = v
			changed = true
		}
	}
	return changed
}

// transferBlock interprets one block's nodes in order. Defers are skipped
// entirely: a deferred unlock releases only at return, so the lock stays
// in the held set, and a deferred blocking call runs outside the critical
// path this pass models.
func (lo *lockOrderPass) transferBlock(blk *cfgBlock, held flowState, report bool) flowState {
	for _, n := range blk.nodes {
		if _, ok := n.(*ast.DeferStmt); ok {
			continue
		}
		blockOK := lo.commOK[n]
		ast.Inspect(n, func(x ast.Node) bool {
			switch y := x.(type) {
			case *ast.GoStmt, *ast.FuncLit, *ast.DeferStmt:
				return false
			case *ast.SendStmt:
				if !blockOK {
					lo.blockingOp(y.Pos(), "channel send", held, report)
				}
			case *ast.UnaryExpr:
				if y.Op == token.ARROW && !blockOK {
					lo.blockingOp(y.Pos(), "channel receive", held, report)
				}
			case *ast.CallExpr:
				lo.call(y, held, report)
			}
			return true
		})
	}
	return held
}

// call interprets one call: lock/unlock updates the held set, blocking
// primitives and callee summaries are checked against it.
func (lo *lockOrderPass) call(call *ast.CallExpr, held flowState, report bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if id := lockIDOf(lo.fn.pkg, sel.X); id != "" {
				if report {
					lo.addEdges(held, id, call.Pos(), "")
				}
				held[id] = resState{pos: call.Pos()}
				return
			}
		case "Unlock", "RUnlock":
			if id := lockIDOf(lo.fn.pkg, sel.X); id != "" {
				delete(held, id)
				return
			}
		case "Wait":
			if len(call.Args) == 0 {
				lo.blockingOp(call.Pos(), "Wait()", held, report)
				return
			}
		case "Sleep":
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
				lo.blockingOp(call.Pos(), "time.Sleep", held, report)
				return
			}
		}
	}
	key := lo.mod.resolveCallee(lo.fn.pkg, lo.fn.fi, call)
	if key == "" {
		return
	}
	sum := lo.sums[key]
	if sum == nil {
		return
	}
	callee := shortFuncName(key, lo.fn.pkg.ImportPath)
	if report {
		for id := range sum.acquires {
			lo.addEdges(held, id, call.Pos(), callee)
		}
	}
	if sum.blocks.IsValid() && len(held) > 0 {
		lo.blockingOp(call.Pos(), fmt.Sprintf("call to %s, which may block", callee), held, report)
	}
}

// blockingOp reports a blocking operation reached with locks held.
func (lo *lockOrderPass) blockingOp(pos token.Pos, what string, held flowState, report bool) {
	if !report || len(held) == 0 {
		return
	}
	ids := make([]string, 0, len(held))
	for id := range held {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	lo.report(pos, fmt.Sprintf("%s held across %s; the critical section is bounded by another goroutine's progress",
		lockLabel(ids[0]), what))
}

// addEdges records one order edge per held lock. Self-edges are excluded:
// a type-normalized identity cannot tell two instances of one type apart,
// so a self-edge is as often two instances locked one after the other as a
// re-lock. The locks check reports the re-lock it can see: the same mutex
// path (c.mu), locked directly or by a method on c whose summary locks it.
func (lo *lockOrderPass) addEdges(held flowState, to string, pos token.Pos, via string) {
	for from := range held {
		if from == to {
			continue
		}
		if lo.edges[from] == nil {
			lo.edges[from] = make(map[string]*lockEdge)
		}
		if lo.edges[from][to] == nil {
			lo.edges[from][to] = &lockEdge{
				from: from, to: to, pos: pos,
				pkg: lo.fn.pkg, fi: lo.fn.fi, via: via,
			}
		}
	}
}

// reportCycles finds strongly connected components in the order graph and
// reports one finding per component of two or more locks.
func (lo *lockOrderPass) reportCycles() {
	for _, scc := range lockSCCs(lo.edges) {
		if len(scc) < 2 {
			continue
		}
		path := cyclePath(scc, lo.edges)
		if path == nil {
			continue
		}
		// Representative edge: the first hop of the cycle.
		e := lo.edges[path[0]][path[1]]
		labels := make([]string, len(path))
		for i, id := range path {
			labels[i] = lockLabel(id)
		}
		detail := ""
		if e.via != "" {
			detail = fmt.Sprintf(" (%s acquired via call to %s while %s held)",
				lockLabel(e.to), e.via, lockLabel(e.from))
		}
		if e.fi.allowedAt(e.pkg.Fset, e.pos, "lockorder") {
			continue
		}
		lo.mod.lockFindings[e.pkg.ImportPath] = append(lo.mod.lockFindings[e.pkg.ImportPath], Finding{
			Pos:   e.pkg.Fset.Position(e.pos),
			Check: "lockorder",
			Msg: fmt.Sprintf("lock order cycle: %s%s; concurrent callers acquiring in opposite orders can deadlock",
				strings.Join(labels, " -> "), detail),
		})
	}
}

// lockSCCs is Tarjan's algorithm over the order graph, with sorted
// iteration for deterministic output.
func lockSCCs(edges map[string]map[string]*lockEdge) [][]string {
	nodeSet := make(map[string]bool)
	for from, tos := range edges {
		nodeSet[from] = true
		for to := range tos {
			nodeSet[to] = true
		}
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(edges[v]))
		for to := range edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

// cyclePath finds a concrete cycle inside one SCC, returned as
// [a, b, ..., a], for the finding message.
func cyclePath(scc []string, edges map[string]map[string]*lockEdge) []string {
	in := make(map[string]bool, len(scc))
	for _, n := range scc {
		in[n] = true
	}
	start := scc[0]
	var dfs func(cur string, path []string, seen map[string]bool) []string
	dfs = func(cur string, path []string, seen map[string]bool) []string {
		tos := make([]string, 0, len(edges[cur]))
		for to := range edges[cur] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if to == start && len(path) > 1 {
				return append(path, start)
			}
			if !in[to] || seen[to] {
				continue
			}
			seen[to] = true
			if p := dfs(to, append(path, to), seen); p != nil {
				return p
			}
			delete(seen, to)
		}
		return nil
	}
	return dfs(start, []string{start}, map[string]bool{start: true})
}
