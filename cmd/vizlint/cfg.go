package main

import (
	"go/ast"
	"go/token"
)

// This file builds a per-function control-flow graph over go/ast. The CFG
// is the substrate shared by every path-sensitive check (obs, ctxcancel,
// release, locks, lockorder): one builder handles branches, loops,
// switch/select, labeled break/continue, defer, panic and fallthrough, so
// the checks themselves reduce to a transfer function over block nodes
// (see dataflow.go).
//
// Blocks hold the simple statements and scanned expressions executed in
// order; control flow lives entirely on the edges. A return terminates its
// block (the ReturnStmt is the block's last node, so transfer functions
// see it); panic terminates with no successor and no report, matching the
// long-standing checker behavior that a panicking path is not a leak.

// cfgEdge is one successor edge. When cond is non-nil the edge is taken
// only when cond evaluates to sense; the dataflow pass uses this to kill
// boolean guard tokens on the branch where the guard is false (e.g. the
// implicit else of `if probe { releaseProbe() }`).
type cfgEdge struct {
	to    *cfgBlock
	cond  *ast.Ident
	sense bool
}

// cfgBlock is one basic block.
type cfgBlock struct {
	id    int
	nodes []ast.Node // statements and scanned expressions, in order
	succs []cfgEdge
}

// cfg is a function body's control-flow graph. exit is the fall-off-the-
// end block: reachable only when some path completes the body without
// returning, panicking or looping forever.
type cfg struct {
	entry  *cfgBlock
	exit   *cfgBlock
	blocks []*cfgBlock
}

// loopScope is one enclosing breakable construct: loops carry a continue
// target, switches and selects only a break target.
type loopScope struct {
	label string
	brk   *cfgBlock
	cont  *cfgBlock // nil for switch/select scopes
}

type cfgBuilder struct {
	g            *cfg
	scopes       []loopScope
	nextCase     *cfgBlock // fallthrough target inside a switch clause
	pendingLabel string
}

// buildCFG constructs the CFG for one function body. Function literals
// inside the body are opaque expressions here: each literal's body gets
// its own CFG when its enclosing check analyzes it.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{g: &cfg{}}
	b.g.entry = b.newBlock()
	end := b.stmts(b.g.entry, body.List)
	b.g.exit = b.newBlock()
	if end != nil {
		b.edge(end, b.g.exit, nil, false)
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{id: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock, cond *ast.Ident, sense bool) {
	from.succs = append(from.succs, cfgEdge{to: to, cond: cond, sense: sense})
}

// takeLabel consumes the label set by an enclosing LabeledStmt, so it
// binds to the loop or switch built next.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// stmts threads cur through list; a nil return means every path through
// the list terminated (return, panic, break/continue out).
func (b *cfgBuilder) stmts(cur *cfgBlock, list []ast.Stmt) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			return nil // unreachable code after a terminator
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

// guardIdent recognizes a bare boolean condition: `x` yields (x, true),
// `!x` yields (x, false); anything else yields nil and the condition is
// scanned as an ordinary expression node.
func guardIdent(cond ast.Expr) (*ast.Ident, bool) {
	switch x := cond.(type) {
	case *ast.Ident:
		return x, true
	case *ast.ParenExpr:
		return guardIdent(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			if id, sense := guardIdent(x.X); id != nil {
				return id, !sense
			}
		}
	}
	return nil, false
}

func (b *cfgBuilder) stmt(cur *cfgBlock, s ast.Stmt) *cfgBlock {
	switch x := s.(type) {
	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, x)
		if call, ok := x.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return nil
			}
		}
		return cur

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, x)
		return nil

	case *ast.BranchStmt:
		switch x.Tok {
		case token.BREAK:
			if t := b.branchTarget(x.Label, true); t != nil {
				b.edge(cur, t, nil, false)
			}
		case token.CONTINUE:
			if t := b.branchTarget(x.Label, false); t != nil {
				b.edge(cur, t, nil, false)
			}
		case token.FALLTHROUGH:
			if b.nextCase != nil {
				b.edge(cur, b.nextCase, nil, false)
			}
		}
		// goto: conservative, no edge — the path is treated as leaving the
		// function, mirroring the pre-engine checkers.
		return nil

	case *ast.BlockStmt:
		return b.stmts(cur, x.List)

	case *ast.LabeledStmt:
		b.pendingLabel = x.Label.Name
		return b.stmt(cur, x.Stmt)

	case *ast.IfStmt:
		return b.ifStmt(cur, x)

	case *ast.ForStmt:
		return b.forStmt(cur, x)

	case *ast.RangeStmt:
		return b.rangeStmt(cur, x)

	case *ast.SwitchStmt:
		if x.Init != nil {
			if cur = b.stmt(cur, x.Init); cur == nil {
				return nil
			}
		}
		if x.Tag != nil {
			cur.nodes = append(cur.nodes, x.Tag)
		}
		return b.switchClauses(cur, x.Body, true)

	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			if cur = b.stmt(cur, x.Init); cur == nil {
				return nil
			}
		}
		cur.nodes = append(cur.nodes, x.Assign)
		return b.switchClauses(cur, x.Body, false)

	case *ast.SelectStmt:
		return b.selectStmt(cur, x)

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, DeferStmt, GoStmt,
		// EmptyStmt: simple nodes the transfer function interprets.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

func (b *cfgBuilder) ifStmt(cur *cfgBlock, x *ast.IfStmt) *cfgBlock {
	if x.Init != nil {
		if cur = b.stmt(cur, x.Init); cur == nil {
			return nil
		}
	}
	cond, sense := guardIdent(x.Cond)
	if cond == nil {
		cur.nodes = append(cur.nodes, x.Cond)
	}
	thenB := b.newBlock()
	b.edge(cur, thenB, cond, sense)
	thenEnd := b.stmts(thenB, x.Body.List)

	var join *cfgBlock
	ensureJoin := func() *cfgBlock {
		if join == nil {
			join = b.newBlock()
		}
		return join
	}
	switch e := x.Else.(type) {
	case nil:
		b.edge(cur, ensureJoin(), cond, !sense)
	case *ast.BlockStmt:
		elseB := b.newBlock()
		b.edge(cur, elseB, cond, !sense)
		if end := b.stmts(elseB, e.List); end != nil {
			b.edge(end, ensureJoin(), nil, false)
		}
	case *ast.IfStmt:
		elseB := b.newBlock()
		b.edge(cur, elseB, cond, !sense)
		if end := b.stmt(elseB, e); end != nil {
			b.edge(end, ensureJoin(), nil, false)
		}
	}
	if thenEnd != nil {
		b.edge(thenEnd, ensureJoin(), nil, false)
	}
	return join // nil when both branches terminated
}

func (b *cfgBuilder) forStmt(cur *cfgBlock, x *ast.ForStmt) *cfgBlock {
	label := b.takeLabel()
	if x.Init != nil {
		if cur = b.stmt(cur, x.Init); cur == nil {
			return nil
		}
	}
	head := b.newBlock()
	b.edge(cur, head, nil, false)
	body := b.newBlock()
	after := b.newBlock()
	if x.Cond != nil {
		cond, sense := guardIdent(x.Cond)
		if cond == nil {
			head.nodes = append(head.nodes, x.Cond)
		}
		b.edge(head, body, cond, sense)
		b.edge(head, after, cond, !sense)
	} else {
		// `for { ... }`: no fall-out edge; after is reachable only via
		// break. This is what lets an infinite accept/retry loop with
		// returns inside (e.g. Pool.Acquire) analyze precisely.
		b.edge(head, body, nil, false)
	}
	cont := head
	var post *cfgBlock
	if x.Post != nil {
		post = b.newBlock()
		cont = post
	}
	b.scopes = append(b.scopes, loopScope{label: label, brk: after, cont: cont})
	bodyEnd := b.stmts(body, x.Body.List)
	b.scopes = b.scopes[:len(b.scopes)-1]
	if bodyEnd != nil {
		b.edge(bodyEnd, cont, nil, false)
	}
	if post != nil {
		if end := b.stmt(post, x.Post); end != nil {
			b.edge(end, head, nil, false)
		}
	}
	return after
}

func (b *cfgBuilder) rangeStmt(cur *cfgBlock, x *ast.RangeStmt) *cfgBlock {
	label := b.takeLabel()
	head := b.newBlock()
	b.edge(cur, head, nil, false)
	head.nodes = append(head.nodes, x.X)
	body := b.newBlock()
	after := b.newBlock()
	b.edge(head, body, nil, false)
	b.edge(head, after, nil, false)
	b.scopes = append(b.scopes, loopScope{label: label, brk: after, cont: head})
	bodyEnd := b.stmts(body, x.Body.List)
	b.scopes = b.scopes[:len(b.scopes)-1]
	if bodyEnd != nil {
		b.edge(bodyEnd, head, nil, false)
	}
	return after
}

// switchClauses builds the clause blocks of a switch or type switch.
// allowFallthrough distinguishes expression switches from type switches.
func (b *cfgBuilder) switchClauses(cur *cfgBlock, body *ast.BlockStmt, allowFallthrough bool) *cfgBlock {
	label := b.takeLabel()
	join := b.newBlock()
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		clauses = append(clauses, cc)
		if cc.List == nil {
			hasDefault = true
		}
	}
	blks := make([]*cfgBlock, len(clauses))
	for i := range clauses {
		blks[i] = b.newBlock()
		b.edge(cur, blks[i], nil, false)
	}
	if !hasDefault {
		// The switch may match nothing: the entry state reaches the join.
		b.edge(cur, join, nil, false)
	}
	b.scopes = append(b.scopes, loopScope{label: label, brk: join})
	savedNext := b.nextCase
	for i, cc := range clauses {
		blk := blks[i]
		for _, e := range cc.List {
			blk.nodes = append(blk.nodes, e)
		}
		b.nextCase = nil
		if allowFallthrough && i+1 < len(clauses) {
			b.nextCase = blks[i+1]
		}
		if end := b.stmts(blk, cc.Body); end != nil {
			b.edge(end, join, nil, false)
		}
	}
	b.nextCase = savedNext
	b.scopes = b.scopes[:len(b.scopes)-1]
	return join
}

func (b *cfgBuilder) selectStmt(cur *cfgBlock, x *ast.SelectStmt) *cfgBlock {
	label := b.takeLabel()
	join := b.newBlock()
	b.scopes = append(b.scopes, loopScope{label: label, brk: join})
	// A select executes exactly one clause (default included): no edge
	// from cur to join.
	for _, c := range x.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(cur, blk, nil, false)
		if cc.Comm != nil {
			end := b.stmt(blk, cc.Comm)
			if end == nil {
				continue
			}
			blk = end
		}
		if end := b.stmts(blk, cc.Body); end != nil {
			b.edge(end, join, nil, false)
		}
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	return join
}

// branchTarget resolves a break or continue to its destination block.
func (b *cfgBuilder) branchTarget(label *ast.Ident, isBreak bool) *cfgBlock {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := b.scopes[i]
		if label != nil && sc.label != label.Name {
			continue
		}
		if isBreak {
			return sc.brk
		}
		if sc.cont != nil {
			return sc.cont
		}
		if label != nil {
			return nil // labeled continue on a non-loop: malformed
		}
	}
	return nil
}
