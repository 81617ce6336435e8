package cache

import (
	"sort"
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
func Derive(s *query.Query, sres *exec.Result, r *query.Query) (*exec.Result, bool) {
	if s.GroupKey() != r.GroupKey() {
		return nil, false
	}
	// Top-n and having-filtered results are not subsumption sources or
	// targets beyond exact identity: their row sets depend on the full
	// aggregation.
	if (s.N > 0 || len(s.Having) > 0 || len(r.Having) > 0) && s.Key() != r.Key() {
		return nil, false
	}

	// Dimension mapping: R dim -> stored column index.
	sDimIdx := map[string]int{}
	for i, d := range s.Dims {
		sDimIdx[dimKey(d)] = i
	}
	dimSrc := make([]int, len(r.Dims))
	for i, d := range r.Dims {
		idx, ok := sDimIdx[dimKey(d)]
		if !ok {
			return nil, false
		}
		dimSrc[i] = idx
	}
	needRollup := len(r.Dims) != len(s.Dims)

	// Filter analysis.
	type residual struct {
		f   query.Filter
		col int // stored column index
	}
	var residuals []residual
	collFor := func(col int) storage.Collation { return sres.Schema[col].Coll }
	// Every stored filter must be implied by some requested filter.
	for _, g := range s.Filters {
		implied := false
		for _, f := range r.Filters {
			if f.Implies(g, collForName(sres, g.Col)) {
				implied = true
				break
			}
		}
		if !implied {
			return nil, false
		}
	}
	// Requested filters not identically present are applied locally.
	for _, f := range r.Filters {
		identical := false
		for _, g := range s.Filters {
			if f.Equals(g, collForName(sres, f.Col)) {
				identical = true
				break
			}
		}
		if identical {
			continue
		}
		if f.Kind == query.FilterTemp {
			return nil, false // opaque temp contents cannot be applied locally
		}
		idx, ok := sDimIdx["c:"+strings.ToLower(f.Col)]
		if !ok {
			return nil, false // filter column not in the stored output
		}
		residuals = append(residuals, residual{f: f, col: idx})
	}

	// Measure derivation plans.
	type measurePlan struct {
		kind    byte // 'm' merge, 'a' avg-from-partials
		src     int  // stored column (merge)
		sumCol  int  // avg partials
		cntCol  int
		mergeFn plan.AggFn
	}
	sMeasIdx := map[string]int{}
	for i, m := range s.Measures {
		sMeasIdx[measKey(m)] = len(s.Dims) + i
	}
	plans := make([]measurePlan, len(r.Measures))
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
				if needRollup {
					return nil, false
				}
				mp.mergeFn = plan.AggMax // unused: passthrough, no rollup
			}
			plans[i] = mp
			continue
		}
		if m.Fn == query.Avg {
			sumIdx, okS := sMeasIdx[measKey(query.Measure{Fn: query.Sum, Col: m.Col})]
			cntIdx, okC := sMeasIdx[measKey(query.Measure{Fn: query.Count, Col: m.Col})]
			if okS && okC {
				plans[i] = measurePlan{kind: 'a', sumCol: sumIdx, cntCol: cntIdx}
				continue
			}
		}
		return nil, false
	}

	// ---- execute the local post-processing ----
	outSchema := make([]plan.ColInfo, 0, len(r.Dims)+len(r.Measures))
	for i, d := range r.Dims {
		src := sres.Schema[dimSrc[i]]
		outSchema = append(outSchema, plan.ColInfo{Name: d.Name(), Type: src.Type, Coll: src.Coll})
	}
	for i, m := range r.Measures {
		var t storage.Type
		if plans[i].kind == 'a' {
			t = storage.TFloat
		} else {
			t = sres.Schema[plans[i].src].Type
		}
		outSchema = append(outSchema, plan.ColInfo{Name: m.Name(), Type: t, Coll: storage.CollBinary})
	}
	out := exec.NewResult(outSchema)

	type acc struct {
		keys []storage.Value
		vals []storage.Value // merge state per measure
		sums []float64       // avg partials
		cnts []int64
		set  []bool
	}
	newAcc := func() *acc {
		return &acc{
			keys: make([]storage.Value, len(r.Dims)),
			vals: make([]storage.Value, len(r.Measures)),
			sums: make([]float64, len(r.Measures)),
			cnts: make([]int64, len(r.Measures)),
			set:  make([]bool, len(r.Measures)),
		}
	}
	groups := map[string]*acc{}
	var order []*acc
	var keyBuf []byte

	for row := 0; row < sres.N; row++ {
		keep := true
		for _, rf := range residuals {
			if !filterAccepts(rf.f, sres.Value(row, rf.col), collFor(rf.col)) {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		keyBuf = keyBuf[:0]
		for i := range r.Dims {
			keyBuf = storage.AppendKey(keyBuf, sres.Value(row, dimSrc[i]), collFor(dimSrc[i]))
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = newAcc()
			for i := range r.Dims {
				g.keys[i] = sres.Value(row, dimSrc[i])
			}
			groups[string(keyBuf)] = g
			order = append(order, g)
		}
		for i := range r.Measures {
			mp := plans[i]
			if mp.kind == 'a' {
				sv, cv := sres.Value(row, mp.sumCol), sres.Value(row, mp.cntCol)
				if !sv.Null {
					g.sums[i] += sv.AsFloat()
				}
				if !cv.Null {
					g.cnts[i] += cv.I
				}
				g.set[i] = g.set[i] || !cv.Null
				continue
			}
			v := sres.Value(row, mp.src)
			if v.Null {
				continue
			}
			if !g.set[i] {
				g.vals[i] = v
				g.set[i] = true
				continue
			}
			switch mp.mergeFn {
			case plan.AggSum:
				if v.Type == storage.TFloat {
					g.vals[i] = storage.FloatValue(g.vals[i].F + v.F)
				} else {
					g.vals[i] = storage.Value{Type: v.Type, I: g.vals[i].I + v.I}
				}
			case plan.AggMin:
				if storage.Compare(v, g.vals[i], collFor(mp.src)) < 0 {
					g.vals[i] = v
				}
			case plan.AggMax:
				if storage.Compare(v, g.vals[i], collFor(mp.src)) > 0 {
					g.vals[i] = v
				}
			}
		}
	}

	if len(r.Dims) == 0 && len(order) == 0 {
		// A global aggregate has one row even over no input (count 0, null
		// sums), like the engine's.
		order = append(order, newAcc())
	}
	for _, g := range order {
		row := make([]storage.Value, 0, len(outSchema))
		row = append(row, g.keys...)
		for i, m := range r.Measures {
			switch {
			case plans[i].kind == 'a':
				if g.cnts[i] == 0 {
					row = append(row, storage.NullValue(storage.TFloat))
				} else {
					row = append(row, storage.FloatValue(g.sums[i]/float64(g.cnts[i])))
				}
			case !g.set[i]:
				if m.Fn == query.Count || m.Fn == query.CountD {
					row = append(row, storage.IntValue(0))
				} else {
					row = append(row, storage.NullValue(outSchema[len(r.Dims)+i].Type))
				}
			default:
				row = append(row, g.vals[i])
			}
		}
		out.AppendRow(row)
	}

	applyOrder(out, r)
	return out, true
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

func collForName(res *exec.Result, col string) storage.Collation {
	if i := res.ColumnIndex(col); i >= 0 {
		return res.Schema[i].Coll
	}
	return storage.CollBinary
}

func filterAccepts(f query.Filter, v storage.Value, coll storage.Collation) bool {
	if v.Null {
		return false
	}
	if f.Kind == query.FilterIn {
		for _, x := range f.In {
			if storage.Equal(x, v, coll) {
				return true
			}
		}
		return false
	}
	if f.LoSet {
		c := storage.Compare(v, f.Lo, coll)
		if c < 0 || (c == 0 && f.LoOpen) {
			return false
		}
	}
	if f.HiSet {
		c := storage.Compare(v, f.Hi, coll)
		if c > 0 || (c == 0 && f.HiOpen) {
			return false
		}
	}
	return true
}

func applyOrder(res *exec.Result, r *query.Query) {
	if len(r.OrderBy) == 0 {
		return
	}
	cols := make([]int, len(r.OrderBy))
	for i, o := range r.OrderBy {
		cols[i] = res.ColumnIndex(o.Col)
		if cols[i] < 0 {
			return
		}
	}
	idx := make([]int32, res.N)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for k, o := range r.OrderBy {
			c := storage.Compare(res.Value(int(idx[a]), cols[k]), res.Value(int(idx[b]), cols[k]), res.Schema[cols[k]].Coll)
			if c != 0 {
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	for c, v := range res.Cols {
		res.Cols[c] = v.Gather(idx)
	}
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
	schema := make([]plan.ColInfo, 0, len(s.Dims)+len(s.Measures))
	for _, d := range s.Dims {
		schema = append(schema, plan.ColInfo{Name: d.Name(), Type: storage.TStr})
	}
	for _, m := range s.Measures {
		schema = append(schema, plan.ColInfo{Name: m.Name(), Type: storage.TFloat})
	}
	_, ok := Derive(s, exec.NewResult(schema), r)
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
