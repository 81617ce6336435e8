package cache

import (
	"slices"
	"strings"

	"vizq/internal/query"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// Derive answers the requested query R from the stored query S's result, if
// S provably subsumes R. The post-processing repertoire matches Sect. 3.2:
// roll-up, filtering, calculation projection and column restriction.
//
// Subsumption conditions:
//   - Same data source and view.
//   - Every R dimension appears among S's dimensions.
//   - R's filters imply S's filters; residual (tighter or extra) filters
//     apply locally, which requires their columns among S's dimensions.
//   - Every R measure is derivable: identical measures roll up by their
//     merge function (COUNT and SUM by summing, MIN/MAX by re-minimizing);
//     AVG derives from stored SUM+COUNT; AVG and COUNTD pass through only
//     when no roll-up is needed (residual filtering drops whole groups, so
//     per-group values stay valid).
//   - A stored top-n result answers only the identical query.
//
// When R names every stored dimension (every exact hit and AdjustForReuse
// round trip), each stored row is one requested group and the answer is a
// column view of the kept rows, sharing sres's vectors when none is dropped;
// otherwise the kept rows are regrouped. The answer is always a new Result,
// never sres, and like every result the caches hand out it is read-only.
func Derive(s *query.Query, sres *exec.Result, r *query.Query) (*exec.Result, bool) {
	d, ok := match(s, sres.Schema, r)
	if !ok {
		return nil, false
	}
	return d.run(sres, r), true
}

// derivation is how R's answer is computed from S's result.
type derivation struct {
	dimSrc    []int // stored column of each R dimension
	atGrain   bool  // R names every stored dimension
	residuals []residual
	plans     []measurePlan
}

// residual is a requested filter applied to the stored rows.
type residual struct {
	f   query.Filter
	col int // stored column index
}

// measurePlan derives one R measure: 'm' merges (or, at the stored grain,
// passes through) stored column src by mergeFn; 'a' divides the stored
// SUM and COUNT partials of an AVG.
type measurePlan struct {
	kind           byte
	src            int
	sumCol, cntCol int
	mergeFn        plan.AggFn
}

// match proves that S, whose result has the given schema, subsumes R, and
// plans the derivation. Only the schema's column types and collations are
// read; a filter column the schema lacks is of unknown type.
func match(s *query.Query, schema []plan.ColInfo, r *query.Query) (derivation, bool) {
	var d derivation
	if s.GroupKey() != r.GroupKey() {
		return d, false
	}
	// Top-n and having-filtered results are not subsumption sources or
	// targets beyond exact identity: their row sets depend on the full
	// aggregation.
	if (s.N > 0 || len(s.Having) > 0 || len(r.Having) > 0) && s.Key() != r.Key() {
		return d, false
	}

	// Dimension mapping: R dim -> stored column index.
	sDimIdx := map[string]int{}
	for i, dim := range s.Dims {
		sDimIdx[dimKey(dim)] = i
	}
	d.dimSrc = make([]int, len(r.Dims))
	for i, dim := range r.Dims {
		idx, ok := sDimIdx[dimKey(dim)]
		if !ok {
			return d, false
		}
		d.dimSrc[i] = idx
	}
	// R is at the stored grain when it names every stored dimension;
	// comparing counts is not enough, as R may name one of them twice.
	d.atGrain = true
	for i := range s.Dims {
		d.atGrain = d.atGrain && slices.Contains(d.dimSrc, i)
	}

	// Each (requested, stored) filter pair is proven once. Every stored
	// filter must be implied by some requested filter; a requested filter
	// equal to none of them is applied locally.
	var impliedBuf, identicalBuf [8]bool
	implied := append(impliedBuf[:0], make([]bool, len(s.Filters))...)
	identical := append(identicalBuf[:0], make([]bool, len(r.Filters))...)
	for i, f := range r.Filters {
		col := colInfo(schema, f.Col)
		for j, g := range s.Filters {
			fg, gf := f.Relate(g, col.Type, col.Coll)
			implied[j] = implied[j] || fg
			identical[i] = identical[i] || fg && gf
		}
	}
	if slices.Contains(implied, false) {
		return d, false
	}
	for i, f := range r.Filters {
		if identical[i] {
			continue
		}
		if f.Kind == query.FilterTemp {
			return d, false // opaque temp contents cannot be applied locally
		}
		idx, ok := sDimIdx["c:"+strings.ToLower(f.Col)]
		if !ok {
			return d, false // filter column not in the stored output
		}
		d.residuals = append(d.residuals, residual{f: f, col: idx})
	}

	// Measure derivation plans.
	sMeasIdx := map[string]int{}
	for i, m := range s.Measures {
		sMeasIdx[measKey(m)] = len(s.Dims) + i
	}
	d.plans = make([]measurePlan, len(r.Measures))
	for i, m := range r.Measures {
		if idx, ok := sMeasIdx[measKey(m)]; ok {
			mp := measurePlan{kind: 'm', src: idx}
			switch m.Fn {
			case query.Count, query.Sum:
				mp.mergeFn = plan.AggSum
			case query.Min:
				mp.mergeFn = plan.AggMin
			case query.Max:
				mp.mergeFn = plan.AggMax
			case query.Avg, query.CountD:
				if !d.atGrain {
					return d, false
				}
				mp.mergeFn = plan.AggMax // a group of one stored row: passthrough
			}
			d.plans[i] = mp
			continue
		}
		if m.Fn == query.Avg {
			sumIdx, okS := sMeasIdx[measKey(query.Measure{Fn: query.Sum, Col: m.Col})]
			cntIdx, okC := sMeasIdx[measKey(query.Measure{Fn: query.Count, Col: m.Col})]
			if okS && okC {
				d.plans[i] = measurePlan{kind: 'a', sumCol: sumIdx, cntCol: cntIdx}
				continue
			}
		}
		return d, false
	}
	return d, true
}

// run computes R's answer from S's result sres.
func (d derivation) run(sres *exec.Result, r *query.Query) *exec.Result {
	rows := keptRows(sres, d.residuals)
	n, firsts := len(rows), rows
	if rows == nil {
		n = sres.N
	}
	// Without stored dimensions the one stored row is regrouped too: a
	// global aggregate has one row even over no input, like the engine's.
	var grp []int32
	regroup := !d.atGrain || len(d.dimSrc) == 0
	if regroup {
		if rows == nil {
			rows = make([]int32, sres.N)
			for i := range rows {
				rows[i] = int32(i)
			}
		}
		grp, firsts = groupRows(sres, d.dimSrc, rows)
		n = len(firsts)
		if len(r.Dims) == 0 {
			n = 1
		}
	}
	// column is stored column c at the requested grain: the kept rows'
	// cells, or their per-group merge by fn.
	column := func(c int, fn plan.AggFn) *storage.Vector {
		if !regroup {
			return gather(sres.Cols[c], rows)
		}
		return merge(sres.Cols[c], sres.Schema[c].Coll, fn, rows, grp, n)
	}
	schema := make([]plan.ColInfo, 0, len(r.Dims)+len(r.Measures))
	cols := make([]*storage.Vector, 0, cap(schema))
	for i, dim := range r.Dims {
		src := sres.Schema[d.dimSrc[i]]
		schema = append(schema, plan.ColInfo{Name: dim.Name(), Type: src.Type, Coll: src.Coll})
		cols = append(cols, gather(sres.Cols[d.dimSrc[i]], firsts))
	}
	for i, m := range r.Measures {
		var v *storage.Vector
		switch mp := d.plans[i]; {
		case mp.kind == 'a':
			v = avgOf(column(mp.sumCol, plan.AggSum), column(mp.cntCol, plan.AggSum))
		case m.Fn == query.Count || m.Fn == query.CountD:
			v = zeroNulls(column(mp.src, mp.mergeFn))
		default:
			v = column(mp.src, mp.mergeFn)
		}
		schema = append(schema, plan.ColInfo{Name: m.Name(), Type: v.Type, Coll: storage.CollBinary})
		cols = append(cols, v)
	}
	out := &exec.Result{Schema: schema, Cols: cols, N: n}
	applyOrder(out, r)
	return out
}

// keptRows returns the stored rows every residual filter accepts, in stored
// order, or nil when that is all of them. Each IN list becomes a key set
// once, so a row costs one probe per filter whatever the list's length.
func keptRows(sres *exec.Result, residuals []residual) []int32 {
	if len(residuals) == 0 || sres.N == 0 {
		return nil
	}
	accepts := make([]func(storage.Value) bool, len(residuals))
	for i, rf := range residuals {
		f, coll := rf.f, sres.Schema[rf.col].Coll
		if f.Kind == query.FilterIn {
			accepts[i] = storage.NewKeySet(sres.Cols[rf.col].Type, coll, f.In).Has
		} else {
			accepts[i] = func(v storage.Value) bool { return f.RangeContains(v, coll) }
		}
	}
	rows := make([]int32, 0, sres.N)
next:
	for row := 0; row < sres.N; row++ {
		for i, rf := range residuals {
			if v := sres.Value(row, rf.col); v.Null || !accepts[i](v) {
				continue next
			}
		}
		rows = append(rows, int32(row))
	}
	if len(rows) == sres.N {
		return nil
	}
	return rows
}

// gather returns v's cells at rows: v itself, shared, when rows is nil.
func gather(v *storage.Vector, rows []int32) *storage.Vector {
	if rows == nil {
		return v
	}
	return v.Gather(rows)
}

// groupRows numbers the requested groups of the given stored rows in order
// of first appearance: grp[k] is the group of rows[k] and firsts[g] the
// stored row that opened group g.
func groupRows(sres *exec.Result, dimSrc []int, rows []int32) (grp, firsts []int32) {
	grp, firsts = make([]int32, len(rows)), []int32{}
	ids := map[string]int32{}
	var key []byte
	for k, row := range rows {
		key = key[:0]
		for _, c := range dimSrc {
			key = storage.AppendKey(key, sres.Value(int(row), c), sres.Schema[c].Coll)
		}
		g, ok := ids[string(key)]
		if !ok {
			g = int32(len(firsts))
			ids[string(key)] = g
			firsts = append(firsts, row)
		}
		grp[k] = g
	}
	return grp, firsts
}

// merge folds v's non-null cells at rows into one cell per group of grp by
// fn (AggSum, AggMin or AggMax); a group with none is null.
func merge(v *storage.Vector, coll storage.Collation, fn plan.AggFn, rows, grp []int32, groups int) *storage.Vector {
	out := storage.NewVector(v.Type, groups)
	set := make([]bool, groups)
	for k, g := range grp {
		row := int(rows[k])
		if v.IsNull(row) {
			continue
		}
		x := v.Value(row)
		switch {
		case !set[g]:
			out.Set(int(g), x)
			set[g] = true
		case fn == plan.AggSum && v.Type == storage.TFloat:
			out.F[g] += x.F
		case fn == plan.AggSum:
			out.I[g] += x.I
		case fn == plan.AggMin && storage.Compare(x, out.Value(int(g)), coll) < 0,
			fn == plan.AggMax && storage.Compare(x, out.Value(int(g)), coll) > 0:
			out.Set(int(g), x)
		}
	}
	for g, ok := range set {
		if !ok {
			out.SetNull(g)
		}
	}
	return out
}

// avgOf derives AVG from its SUM and COUNT partials row by row: null where
// the count is null or 0, and a null sum counts as 0.
func avgOf(sum, cnt *storage.Vector) *storage.Vector {
	out := storage.NewVector(storage.TFloat, cnt.Len())
	for i := range out.F {
		c := cnt.Value(i)
		if c.Null || c.AsFloat() == 0 {
			out.SetNull(i)
		} else if !sum.IsNull(i) {
			out.F[i] = sum.Value(i).AsFloat() / c.AsFloat()
		}
	}
	return out
}

// zeroNulls returns the COUNT or COUNTD column v with its null cells — groups
// of no counted rows — as 0; v itself when it has none.
func zeroNulls(v *storage.Vector) *storage.Vector {
	if !slices.Contains(v.Null, true) {
		return v
	}
	out := storage.NewVector(v.Type, v.Len())
	for i, null := range v.Null {
		if !null {
			out.Set(i, v.Value(i))
		}
	}
	return out
}

func dimKey(d query.Dim) string {
	if d.Expr != "" {
		return "e:" + d.Expr
	}
	return "c:" + strings.ToLower(d.Col)
}

func measKey(m query.Measure) string {
	return string(m.Fn) + "(" + strings.ToLower(m.Col) + ")"
}

// colInfo returns the schema's column named col, or the zero ColInfo (of
// unknown type, binary collation) when it has none.
func colInfo(schema []plan.ColInfo, col string) plan.ColInfo {
	for _, c := range schema {
		if strings.EqualFold(c.Name, col) {
			return c
		}
	}
	return plan.ColInfo{}
}

// applyOrder sorts a derived result by the query's ORDER BY and cuts a
// top-n to r.N. An order column the result lacks leaves it unsorted.
func applyOrder(res *exec.Result, r *query.Query) {
	if len(r.OrderBy) == 0 {
		return
	}
	keys := make([]plan.SortKey, len(r.OrderBy))
	for i, o := range r.OrderBy {
		col := res.ColumnIndex(o.Col)
		if col < 0 {
			return
		}
		keys[i] = plan.SortKey{Col: col, Desc: o.Desc}
	}
	exec.SortResult(res, keys)
	if r.N > 0 && res.N > r.N {
		res.Truncate(r.N)
	}
}

// Subsumes reports whether a (future) result of s could answer r — the
// dry-run form of Derive used when planning a query batch's cache-hit
// opportunity graph (Sect. 3.3: "edges pointing from qi to qj iff the
// result of qj can be computed from the results of qi ... determined by the
// matching logic of the intelligent query cache").
func Subsumes(s, r *query.Query) bool {
	_, ok := match(s, nil, r)
	return ok
}

// AdjustForReuse rewrites the query the processor actually sends so the
// cached result is more useful for future reuse (Sect. 3.2: "the query
// processor might choose to adjust queries before sending"): AVG measures
// are fetched as SUM and COUNT partials so later roll-ups can derive any
// AVG over coarser groupings.
func AdjustForReuse(q *query.Query) *query.Query {
	hasAvg := false
	for _, m := range q.Measures {
		if m.Fn == query.Avg {
			hasAvg = true
			break
		}
	}
	if !hasAvg || q.N > 0 || len(q.Having) > 0 {
		// Top-n and having results are only reusable verbatim; adjusting
		// would change the ranking/threshold column set.
		return q
	}
	adj := q.Clone()
	var out []query.Measure
	have := map[string]bool{}
	for _, m := range adj.Measures {
		if m.Fn != query.Avg {
			out = append(out, m)
			have[measKey(m)] = true
		}
	}
	for _, m := range adj.Measures {
		if m.Fn != query.Avg {
			continue
		}
		s := query.Measure{Fn: query.Sum, Col: m.Col, As: "$sum_" + m.Col}
		c := query.Measure{Fn: query.Count, Col: m.Col, As: "$cnt_" + m.Col}
		if !have[measKey(s)] {
			out = append(out, s)
			have[measKey(s)] = true
		}
		if !have[measKey(c)] {
			out = append(out, c)
			have[measKey(c)] = true
		}
	}
	adj.Measures = out
	// Ordering by a dropped AVG column cannot be pushed remotely; it is
	// re-applied locally by Derive.
	var keep []query.Order
	for _, o := range adj.OrderBy {
		found := false
		for _, c := range adj.OutputColumns() {
			if strings.EqualFold(c, o.Col) {
				found = true
				break
			}
		}
		if found {
			keep = append(keep, o)
		}
	}
	adj.OrderBy = keep
	return adj
}
