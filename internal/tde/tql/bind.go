package tql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// Catalog resolves table references during binding. *storage.Database
// satisfies it.
type Catalog interface {
	Table(schema, name string) (*storage.Table, error)
}

// defaultSchema qualifies unqualified table names.
const defaultSchema = "Extract"

// Compile parses and binds a TQL query against the catalog, producing a
// typed logical plan.
func Compile(src string, cat Catalog) (plan.Node, error) {
	s, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Bind(s, cat)
}

// Bind resolves a parsed TQL tree into a logical plan: name resolution,
// type checking and promotion, and the classic compiler rewrites
// (DISTINCT as GROUP BY, projection insertion under aggregates).
func Bind(s *SExpr, cat Catalog) (plan.Node, error) {
	b := &binder{cat: cat}
	return b.bindNode(s)
}

type scopeCol struct {
	qual string // lower-case table qualifier, "" for computed columns
	info plan.ColInfo
	// shadow marks the right side of an equi-join key whose name matches
	// the left side: the two are interchangeable, so unqualified references
	// resolve to the left column instead of being ambiguous.
	shadow bool
}

type scope struct {
	cols []scopeCol
}

func scopeOf(n plan.Node, qual string) *scope {
	sch := n.Schema()
	sc := &scope{cols: make([]scopeCol, len(sch))}
	for i, c := range sch {
		sc.cols[i] = scopeCol{qual: strings.ToLower(qual), info: c}
	}
	return sc
}

func (sc *scope) resolve(name string) (int, plan.ColInfo, bool, error) {
	lower := strings.ToLower(name)
	// Unqualified or exact-name match first, ignoring shadowed join keys.
	matches := []int{}
	for i, c := range sc.cols {
		if !c.shadow && strings.ToLower(c.info.Name) == lower {
			matches = append(matches, i)
		}
	}
	if len(matches) == 0 {
		for i, c := range sc.cols {
			if c.shadow && strings.ToLower(c.info.Name) == lower {
				matches = append(matches, i)
			}
		}
	}
	if len(matches) == 1 {
		return matches[0], sc.cols[matches[0]].info, true, nil
	}
	if len(matches) > 1 {
		return 0, plan.ColInfo{}, false, fmt.Errorf("ambiguous column %q", name)
	}
	// Qualified form "qual.col" or "schema.qual.col".
	if dot := strings.LastIndex(lower, "."); dot > 0 {
		qual, col := lower[:dot], lower[dot+1:]
		for i, c := range sc.cols {
			if strings.ToLower(c.info.Name) != col || c.qual == "" {
				continue
			}
			if c.qual == qual || strings.HasSuffix(qual, "."+c.qual) {
				return i, c.info, true, nil
			}
		}
	}
	return 0, plan.ColInfo{}, false, nil
}

type binder struct {
	cat Catalog
}

func (b *binder) bindNode(s *SExpr) (plan.Node, error) {
	if s.Kind != SList || len(s.List) == 0 {
		return nil, errAt(s.Line, s.Col, "expected operator list, got %s", s)
	}
	switch s.Head() {
	case "table":
		return b.bindTable(s)
	case "select":
		return b.bindSelect(s)
	case "project":
		return b.bindProject(s)
	case "aggregate":
		return b.bindAggregate(s)
	case "distinct":
		return b.bindDistinct(s)
	case "order":
		return b.bindOrder(s)
	case "topn":
		return b.bindTopN(s)
	case "limit":
		return b.bindLimit(s)
	case "join":
		return b.bindJoin(s)
	default:
		return nil, errAt(s.Line, s.Col, "unknown operator %q", s.Head())
	}
}

// nodeScope binds a child node and builds its resolution scope.
func (b *binder) nodeScope(s *SExpr) (plan.Node, *scope, error) {
	n, err := b.bindNode(s)
	if err != nil {
		return nil, nil, err
	}
	return n, scopeFor(n), nil
}

// scopeFor derives the resolution scope of a bound node, preserving table
// qualifiers through filters, joins and order-preserving operators.
func scopeFor(n plan.Node) *scope {
	switch x := n.(type) {
	case *plan.Scan:
		return scopeOf(x, x.Table.Name)
	case *plan.Filter:
		return scopeFor(x.Child)
	case *plan.Sort:
		return scopeFor(x.Child)
	case *plan.TopN:
		return scopeFor(x.Child)
	case *plan.Limit:
		return scopeFor(x.Child)
	case *plan.Join:
		l, r := scopeFor(x.Left), scopeFor(x.Right)
		rcols := append([]scopeCol{}, r.cols...)
		for ki := range x.LKeys {
			lc, rc := x.LKeys[ki], x.RKeys[ki]
			if strings.EqualFold(l.cols[lc].info.Name, rcols[rc].info.Name) {
				rcols[rc].shadow = true
			}
		}
		return &scope{cols: append(append([]scopeCol{}, l.cols...), rcols...)}
	default:
		return scopeOf(n, "")
	}
}

func (b *binder) bindTable(s *SExpr) (plan.Node, error) {
	if len(s.List) != 2 || s.List[1].Kind != SAtom {
		return nil, errAt(s.Line, s.Col, "usage: (table schema.name)")
	}
	full := s.List[1].Atom
	schema, name := defaultSchema, full
	if dot := strings.LastIndex(full, "."); dot > 0 {
		schema, name = full[:dot], full[dot+1:]
	}
	t, err := b.cat.Table(schema, name)
	if err != nil {
		return nil, errAt(s.Line, s.Col, "%v", err)
	}
	idxs := make([]int, len(t.Cols))
	for i := range idxs {
		idxs[i] = i
	}
	return &plan.Scan{Table: t, ColIdxs: idxs}, nil
}

func (b *binder) bindSelect(s *SExpr) (plan.Node, error) {
	if len(s.List) != 3 {
		return nil, errAt(s.Line, s.Col, "usage: (select <child> <predicate>)")
	}
	child, sc, err := b.nodeScope(s.List[1])
	if err != nil {
		return nil, err
	}
	pred, err := b.bindExpr(s.List[2], sc)
	if err != nil {
		return nil, err
	}
	if pred.Type() != storage.TBool && pred.Type() != storage.TNull {
		return nil, errAt(s.List[2].Line, s.List[2].Col, "predicate must be boolean, got %s", pred.Type())
	}
	return &plan.Filter{Child: child, Pred: pred}, nil
}

func (b *binder) bindProject(s *SExpr) (plan.Node, error) {
	if len(s.List) < 3 {
		return nil, errAt(s.Line, s.Col, "usage: (project <child> (name expr)...)")
	}
	child, sc, err := b.nodeScope(s.List[1])
	if err != nil {
		return nil, err
	}
	p := &plan.Project{Child: child}
	for _, item := range s.List[2:] {
		name, e, err := b.bindNamedExpr(item, sc)
		if err != nil {
			return nil, err
		}
		p.Names = append(p.Names, name)
		p.Exprs = append(p.Exprs, e)
	}
	return p, nil
}

// bindNamedExpr binds (name expr) or a bare column atom (named after itself).
func (b *binder) bindNamedExpr(item *SExpr, sc *scope) (string, plan.Expr, error) {
	if item.Kind == SAtom {
		e, err := b.bindExpr(item, sc)
		if err != nil {
			return "", nil, err
		}
		return item.Atom, e, nil
	}
	if item.Kind == SList && len(item.List) == 2 && item.List[0].Kind == SAtom {
		e, err := b.bindExpr(item.List[1], sc)
		if err != nil {
			return "", nil, err
		}
		return item.List[0].Atom, e, nil
	}
	return "", nil, errAt(item.Line, item.Col, "expected (name expr) or column, got %s", item)
}

func (b *binder) bindDistinct(s *SExpr) (plan.Node, error) {
	if len(s.List) != 2 {
		return nil, errAt(s.Line, s.Col, "usage: (distinct <child>)")
	}
	child, _, err := b.nodeScope(s.List[1])
	if err != nil {
		return nil, err
	}
	// DISTINCT is expressed as GROUP BY over every column (Sect. 4.1.2).
	g := make([]int, len(child.Schema()))
	for i := range g {
		g[i] = i
	}
	return &plan.Aggregate{Child: child, GroupBy: g}, nil
}

func (b *binder) bindAggregate(s *SExpr) (plan.Node, error) {
	if len(s.List) < 3 || len(s.List) > 4 {
		return nil, errAt(s.Line, s.Col, "usage: (aggregate <child> (groupby ...) (aggs ...))")
	}
	child, sc, err := b.nodeScope(s.List[1])
	if err != nil {
		return nil, err
	}
	var groupItems, aggItems []*SExpr
	for _, part := range s.List[2:] {
		switch part.Head() {
		case "groupby":
			groupItems = part.List[1:]
		case "aggs":
			aggItems = part.List[1:]
		default:
			return nil, errAt(part.Line, part.Col, "expected (groupby ...) or (aggs ...), got %s", part)
		}
	}

	type namedExpr struct {
		name string
		expr plan.Expr
	}
	var groups []namedExpr
	for _, g := range groupItems {
		name, e, err := b.bindNamedExpr(g, sc)
		if err != nil {
			return nil, err
		}
		groups = append(groups, namedExpr{name, e})
	}

	type aggItem struct {
		name string
		fn   plan.AggFn
		arg  plan.Expr // nil for count(*)
	}
	var aggs []aggItem
	for _, a := range aggItems {
		if a.Kind != SList || len(a.List) != 3 || a.List[0].Kind != SAtom || a.List[1].Kind != SAtom {
			return nil, errAt(a.Line, a.Col, "expected (name fn arg), got %s", a)
		}
		fn, err := plan.ParseAggFn(a.List[1].Atom)
		if err != nil {
			return nil, errAt(a.List[1].Line, a.List[1].Col, "%v", err)
		}
		item := aggItem{name: a.List[0].Atom, fn: fn}
		if !a.List[2].IsAtom("*") {
			e, err := b.bindExpr(a.List[2], sc)
			if err != nil {
				return nil, err
			}
			if (fn == plan.AggSum || fn == plan.AggAvg) && !e.Type().Numeric() {
				return nil, errAt(a.Line, a.Col, "%s requires a numeric argument, got %s", fn, e.Type())
			}
			item.arg = e
		} else if fn != plan.AggCount {
			return nil, errAt(a.Line, a.Col, "%s requires an argument", fn)
		}
		aggs = append(aggs, item)
	}

	// If every group key and aggregate argument is a plain column, aggregate
	// directly over the child; otherwise insert a projection computing them.
	simple := true
	for _, g := range groups {
		if c, ok := g.expr.(*plan.ColRef); !ok || !strings.EqualFold(c.Name, g.name) {
			simple = false
		}
	}
	for _, a := range aggs {
		if a.arg == nil {
			continue
		}
		if _, ok := a.arg.(*plan.ColRef); !ok {
			simple = false
		}
	}

	agg := &plan.Aggregate{}
	if simple {
		agg.Child = child
		for _, g := range groups {
			agg.GroupBy = append(agg.GroupBy, g.expr.(*plan.ColRef).Idx)
		}
		for _, a := range aggs {
			spec := plan.AggSpec{Fn: a.fn, ArgIdx: -1, Name: a.name}
			if a.arg != nil {
				spec.ArgIdx = a.arg.(*plan.ColRef).Idx
			}
			agg.Aggs = append(agg.Aggs, spec)
		}
	} else {
		proj := &plan.Project{Child: child}
		for _, g := range groups {
			proj.Names = append(proj.Names, g.name)
			proj.Exprs = append(proj.Exprs, g.expr)
		}
		argIdx := map[int]int{} // agg ordinal -> projected column
		for i, a := range aggs {
			if a.arg == nil {
				argIdx[i] = -1
				continue
			}
			proj.Names = append(proj.Names, fmt.Sprintf("$agg%d", i))
			proj.Exprs = append(proj.Exprs, a.arg)
			argIdx[i] = len(proj.Exprs) - 1
		}
		agg.Child = proj
		for i := range groups {
			agg.GroupBy = append(agg.GroupBy, i)
		}
		for i, a := range aggs {
			agg.Aggs = append(agg.Aggs, plan.AggSpec{Fn: a.fn, ArgIdx: argIdx[i], Name: a.name})
		}
	}
	return agg, nil
}

func (b *binder) bindSortKeys(items []*SExpr, sc *scope) ([]plan.SortKey, error) {
	var keys []plan.SortKey
	for _, item := range items {
		desc := false
		var colExpr *SExpr
		switch {
		case item.Kind == SList && len(item.List) == 2 && (item.List[0].IsAtom("asc") || item.List[0].IsAtom("desc")):
			desc = item.List[0].IsAtom("desc")
			colExpr = item.List[1]
		case item.Kind == SAtom:
			colExpr = item
		default:
			return nil, errAt(item.Line, item.Col, "expected (asc col), (desc col) or column, got %s", item)
		}
		e, err := b.bindExpr(colExpr, sc)
		if err != nil {
			return nil, err
		}
		c, ok := e.(*plan.ColRef)
		if !ok {
			return nil, errAt(colExpr.Line, colExpr.Col, "sort keys must be columns")
		}
		keys = append(keys, plan.SortKey{Col: c.Idx, Desc: desc})
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("tql: at least one sort key required")
	}
	return keys, nil
}

func (b *binder) bindOrder(s *SExpr) (plan.Node, error) {
	if len(s.List) < 3 {
		return nil, errAt(s.Line, s.Col, "usage: (order <child> (asc col)...)")
	}
	child, sc, err := b.nodeScope(s.List[1])
	if err != nil {
		return nil, err
	}
	keys, err := b.bindSortKeys(s.List[2:], sc)
	if err != nil {
		return nil, err
	}
	return &plan.Sort{Child: child, Keys: keys}, nil
}

func (b *binder) bindTopN(s *SExpr) (plan.Node, error) {
	if len(s.List) < 4 || s.List[2].Kind != SNum {
		return nil, errAt(s.Line, s.Col, "usage: (topn <child> N (desc col)...)")
	}
	child, sc, err := b.nodeScope(s.List[1])
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(s.List[2].Num)
	if err != nil || n < 0 {
		return nil, errAt(s.List[2].Line, s.List[2].Col, "bad top-n count %q", s.List[2].Num)
	}
	keys, err := b.bindSortKeys(s.List[3:], sc)
	if err != nil {
		return nil, err
	}
	return &plan.TopN{Child: child, N: n, Keys: keys}, nil
}

func (b *binder) bindLimit(s *SExpr) (plan.Node, error) {
	if len(s.List) != 3 || s.List[2].Kind != SNum {
		return nil, errAt(s.Line, s.Col, "usage: (limit <child> N)")
	}
	child, _, err := b.nodeScope(s.List[1])
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(s.List[2].Num)
	if err != nil || n < 0 {
		return nil, errAt(s.List[2].Line, s.List[2].Col, "bad limit %q", s.List[2].Num)
	}
	return &plan.Limit{Child: child, N: n}, nil
}

func (b *binder) bindJoin(s *SExpr) (plan.Node, error) {
	if len(s.List) < 4 {
		return nil, errAt(s.Line, s.Col, "usage: (join <left> <right> (on (= l r)...) [left])")
	}
	left, lsc, err := b.nodeScope(s.List[1])
	if err != nil {
		return nil, err
	}
	right, rsc, err := b.nodeScope(s.List[2])
	if err != nil {
		return nil, err
	}
	on := s.List[3]
	if on.Head() != "on" {
		return nil, errAt(on.Line, on.Col, "expected (on ...), got %s", on)
	}
	j := &plan.Join{Left: left, Right: right}
	for _, cond := range on.List[1:] {
		if cond.Kind != SList || len(cond.List) != 3 || !cond.List[0].IsAtom("=") {
			return nil, errAt(cond.Line, cond.Col, "join conditions must be (= lcol rcol)")
		}
		lIdx, lInfo, lok, err := b.resolveCol(cond.List[1], lsc)
		if err != nil {
			return nil, err
		}
		rIdx, rInfo, rok, err := b.resolveCol(cond.List[2], rsc)
		if err != nil {
			return nil, err
		}
		if !lok || !rok {
			// Allow the condition written right-to-left.
			lIdx, lInfo, lok, err = b.resolveCol(cond.List[2], lsc)
			if err != nil {
				return nil, err
			}
			rIdx, rInfo, rok, err = b.resolveCol(cond.List[1], rsc)
			if err != nil {
				return nil, err
			}
			if !lok || !rok {
				return nil, errAt(cond.Line, cond.Col, "cannot resolve join condition %s", cond)
			}
		}
		if _, err := storage.Promote(lInfo.Type, rInfo.Type); err != nil {
			return nil, errAt(cond.Line, cond.Col, "join key type mismatch: %s vs %s", lInfo.Type, rInfo.Type)
		}
		j.LKeys = append(j.LKeys, lIdx)
		j.RKeys = append(j.RKeys, rIdx)
	}
	if len(j.LKeys) == 0 {
		return nil, errAt(on.Line, on.Col, "join requires at least one condition")
	}
	if len(s.List) > 4 {
		if !s.List[4].IsAtom("left") && !s.List[4].IsAtom("inner") {
			return nil, errAt(s.List[4].Line, s.List[4].Col, "join kind must be inner or left")
		}
		if s.List[4].IsAtom("left") {
			j.Kind = plan.JoinLeft
		}
	}
	return j, nil
}

func (b *binder) resolveCol(s *SExpr, sc *scope) (int, plan.ColInfo, bool, error) {
	if s.Kind != SAtom {
		return 0, plan.ColInfo{}, false, nil
	}
	idx, info, ok, err := sc.resolve(s.Atom)
	if err != nil {
		return 0, plan.ColInfo{}, false, errAt(s.Line, s.Col, "%v", err)
	}
	return idx, info, ok, nil
}

// ---- expressions ----

func (b *binder) bindExpr(s *SExpr, sc *scope) (plan.Expr, error) {
	switch s.Kind {
	case SNum:
		if strings.ContainsAny(s.Num, ".eE") {
			f, err := strconv.ParseFloat(s.Num, 64)
			if err != nil {
				return nil, errAt(s.Line, s.Col, "bad number %q", s.Num)
			}
			return &plan.Lit{Val: storage.FloatValue(f)}, nil
		}
		i, err := strconv.ParseInt(s.Num, 10, 64)
		if err != nil {
			return nil, errAt(s.Line, s.Col, "bad number %q", s.Num)
		}
		return &plan.Lit{Val: storage.IntValue(i)}, nil
	case SStr:
		return &plan.Lit{Val: storage.StrValue(s.Str)}, nil
	case SAtom:
		switch strings.ToLower(s.Atom) {
		case "true":
			return &plan.Lit{Val: storage.BoolValue(true)}, nil
		case "false":
			return &plan.Lit{Val: storage.BoolValue(false)}, nil
		case "null":
			return &plan.Lit{Val: storage.NullValue(storage.TNull)}, nil
		case "nan", "+inf", "-inf": // Value.String's spelling of the floats with no digits
			f, _ := strconv.ParseFloat(s.Atom, 64) // each of the three parses
			return &plan.Lit{Val: storage.FloatValue(f)}, nil
		}
		idx, info, ok, err := sc.resolve(s.Atom)
		if err != nil {
			return nil, errAt(s.Line, s.Col, "%v", err)
		}
		if !ok {
			return nil, errAt(s.Line, s.Col, "unknown column %q", s.Atom)
		}
		return &plan.ColRef{Name: info.Name, Idx: idx, Typ: info.Type, Coll: info.Coll}, nil
	case SList:
		return b.bindCallForm(s, sc)
	default:
		return nil, errAt(s.Line, s.Col, "unexpected expression %s", s)
	}
}

func (b *binder) bindCallForm(s *SExpr, sc *scope) (plan.Expr, error) {
	if len(s.List) == 0 || s.List[0].Kind != SAtom {
		return nil, errAt(s.Line, s.Col, "expected (op args...), got %s", s)
	}
	op := strings.ToLower(s.List[0].Atom)
	args := s.List[1:]
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
		return b.bindCmp(s, op, args, sc)
	case "and", "or":
		if len(args) < 2 {
			return nil, errAt(s.Line, s.Col, "%s needs at least two arguments", op)
		}
		logic := &plan.Logic{Op: plan.LogicAnd}
		if op == "or" {
			logic.Op = plan.LogicOr
		}
		for _, a := range args {
			e, err := b.bindExpr(a, sc)
			if err != nil {
				return nil, err
			}
			if e.Type() != storage.TBool && e.Type() != storage.TNull {
				return nil, errAt(a.Line, a.Col, "%s operand must be boolean, got %s", op, e.Type())
			}
			logic.Args = append(logic.Args, e)
		}
		return logic, nil
	case "not":
		if len(args) != 1 {
			return nil, errAt(s.Line, s.Col, "not takes one argument")
		}
		e, err := b.bindExpr(args[0], sc)
		if err != nil {
			return nil, err
		}
		if e.Type() != storage.TBool && e.Type() != storage.TNull {
			return nil, errAt(args[0].Line, args[0].Col, "not operand must be boolean, got %s", e.Type())
		}
		return &plan.Logic{Op: plan.LogicNot, Args: []plan.Expr{e}}, nil
	case "+", "-", "*", "/", "%":
		return b.bindArith(s, op, args, sc)
	case "in", "not-in":
		return b.bindIn(s, op == "not-in", args, sc)
	case "isnull", "isnotnull":
		if len(args) != 1 {
			return nil, errAt(s.Line, s.Col, "%s takes one argument", op)
		}
		e, err := b.bindExpr(args[0], sc)
		if err != nil {
			return nil, err
		}
		return &plan.IsNull{E: e, Negate: op == "isnotnull"}, nil
	case "if":
		if len(args) != 3 {
			return nil, errAt(s.Line, s.Col, "if takes (if cond then else)")
		}
		cond, err := b.bindExpr(args[0], sc)
		if err != nil {
			return nil, err
		}
		thenE, err := b.bindExpr(args[1], sc)
		if err != nil {
			return nil, err
		}
		elseE, err := b.bindExpr(args[2], sc)
		if err != nil {
			return nil, err
		}
		t, err := storage.Promote(thenE.Type(), elseE.Type())
		if err != nil {
			return nil, errAt(s.Line, s.Col, "if branches: %v", err)
		}
		return &plan.If{Cond: cond, Then: thenE, Else: elseE, Typ: t}, nil
	case "date", "datetime":
		if len(args) != 1 || args[0].Kind != SStr {
			return nil, errAt(s.Line, s.Col, "usage: (%s \"2015-05-31\")", op)
		}
		return bindTemporalLit(op, args[0])
	default:
		fn, ok := plan.LookupFunc(op)
		if !ok {
			return nil, errAt(s.Line, s.Col, "unknown function %q", op)
		}
		if len(args) < fn.MinArgs || len(args) > fn.MaxArgs {
			return nil, errAt(s.Line, s.Col, "%s takes %d..%d arguments, got %d", fn.Name, fn.MinArgs, fn.MaxArgs, len(args))
		}
		call := &plan.Call{Fn: fn}
		for _, a := range args {
			e, err := b.bindExpr(a, sc)
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, e)
		}
		if fn.Check != nil {
			if err := fn.Check(call.Args); err != nil {
				return nil, errAt(s.Line, s.Col, "%v", err)
			}
		}
		return call, nil
	}
}

func bindTemporalLit(op string, arg *SExpr) (plan.Expr, error) {
	if op == "date" {
		t, err := time.Parse("2006-01-02", arg.Str)
		if err != nil {
			return nil, errAt(arg.Line, arg.Col, "bad date %q", arg.Str)
		}
		return &plan.Lit{Val: storage.Value{Type: storage.TDate, I: t.Unix() / 86400}}, nil
	}
	t, err := time.Parse("2006-01-02 15:04:05", arg.Str)
	if err != nil {
		return nil, errAt(arg.Line, arg.Col, "bad datetime %q", arg.Str)
	}
	return &plan.Lit{Val: storage.DateTimeValue(t)}, nil
}

func cmpOpFor(op string) plan.CmpOp {
	switch op {
	case "=":
		return plan.CmpEq
	case "!=":
		return plan.CmpNe
	case "<":
		return plan.CmpLt
	case "<=":
		return plan.CmpLe
	case ">":
		return plan.CmpGt
	default:
		return plan.CmpGe
	}
}

func exprColl(e plan.Expr) storage.Collation {
	coll := storage.CollBinary
	plan.Walk(e, func(x plan.Expr) bool {
		if c, ok := x.(*plan.ColRef); ok && c.Typ == storage.TStr {
			coll = c.Coll
			return false
		}
		return true
	})
	return coll
}

func (b *binder) bindCmp(s *SExpr, op string, args []*SExpr, sc *scope) (plan.Expr, error) {
	if len(args) != 2 {
		return nil, errAt(s.Line, s.Col, "%s takes two arguments", op)
	}
	l, err := b.bindExpr(args[0], sc)
	if err != nil {
		return nil, err
	}
	r, err := b.bindExpr(args[1], sc)
	if err != nil {
		return nil, err
	}
	if _, err := storage.Promote(l.Type(), r.Type()); err != nil {
		return nil, errAt(s.Line, s.Col, "cannot compare %s with %s", l.Type(), r.Type())
	}
	coll := exprColl(l)
	if coll == storage.CollBinary {
		coll = exprColl(r)
	}
	return &plan.Cmp{Op: cmpOpFor(op), L: l, R: r, Coll: coll}, nil
}

func (b *binder) bindArith(s *SExpr, op string, args []*SExpr, sc *scope) (plan.Expr, error) {
	if len(args) != 2 {
		return nil, errAt(s.Line, s.Col, "%s takes two arguments", op)
	}
	l, err := b.bindExpr(args[0], sc)
	if err != nil {
		return nil, err
	}
	r, err := b.bindExpr(args[1], sc)
	if err != nil {
		return nil, err
	}
	if !l.Type().Numeric() && l.Type() != storage.TNull {
		return nil, errAt(args[0].Line, args[0].Col, "%s operand must be numeric, got %s", op, l.Type())
	}
	if !r.Type().Numeric() && r.Type() != storage.TNull {
		return nil, errAt(args[1].Line, args[1].Col, "%s operand must be numeric, got %s", op, r.Type())
	}
	t, err := storage.Promote(l.Type(), r.Type())
	if err != nil {
		return nil, errAt(s.Line, s.Col, "%v", err)
	}
	if op == "/" {
		t = storage.TFloat
	}
	var aop plan.ArithOp
	switch op {
	case "+":
		aop = plan.ArithAdd
	case "-":
		aop = plan.ArithSub
	case "*":
		aop = plan.ArithMul
	case "/":
		aop = plan.ArithDiv
	case "%":
		aop = plan.ArithMod
	}
	return &plan.Arith{Op: aop, L: l, R: r, Typ: t}, nil
}

// bindIn binds (in <expr> [v1 v2 ...]) and (in <expr> (table name)): a
// one-column table binds into the InList the inline list of its values gives.
func (b *binder) bindIn(s *SExpr, negate bool, args []*SExpr, sc *scope) (plan.Expr, error) {
	if len(args) != 2 || (args[1].Kind != SBracket && args[1].Head() != "table") {
		return nil, errAt(s.Line, s.Col, "usage: (in <expr> [v1 v2 ...]) or (in <expr> (table name))")
	}
	e, err := b.bindExpr(args[0], sc)
	if err != nil {
		return nil, err
	}
	in := &plan.InList{E: e, Negate: negate, Coll: exprColl(e)}
	if args[1].Kind != SBracket {
		return in, b.bindInTable(in, args[1])
	}
	for _, item := range args[1].List {
		lit, err := b.bindExpr(item, sc)
		if err != nil {
			return nil, err
		}
		l, ok := lit.(*plan.Lit)
		if !ok {
			return nil, errAt(item.Line, item.Col, "in-list items must be literals")
		}
		if _, err := storage.Promote(e.Type(), l.Val.Type); err != nil {
			return nil, errAt(item.Line, item.Col, "in-list item type %s does not match %s", l.Val.Type, e.Type())
		}
		in.Vals = append(in.Vals, l.Val)
	}
	return in, nil
}

// bindInTable copies the one column of table s into in's value set.
func (b *binder) bindInTable(in *plan.InList, s *SExpr) error {
	n, err := b.bindTable(s)
	if err != nil {
		return err
	}
	t := n.(*plan.Scan).Table
	if len(t.Cols) != 1 {
		return errAt(s.Line, s.Col, "in-table %s has %d columns, want 1", t.QualifiedName(), len(t.Cols))
	}
	col := t.Cols[0]
	if _, err := storage.Promote(in.E.Type(), col.Type); err != nil {
		return errAt(s.Line, s.Col, "in-table column type %s does not match %s", col.Type, in.E.Type())
	}
	in.Vals = make([]storage.Value, col.Len())
	for i := range in.Vals {
		in.Vals[i] = col.Value(i)
	}
	return nil
}
