package opt

import (
	"fmt"

	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// regionInfo describes an open parallel region during bottom-up plan
// generation: the subtree built so far is a template whose (single) main
// scan will be fractioned across clones when the region closes.
type regionInfo struct {
	rows int64   // estimated rows flowing through the region
	cost float64 // per-row expression work (empirical cost profile)
	scan *plan.Scan
}

// Parallelize transforms a serial plan into a parallel plan by determining
// the degree of parallelism bottom-up and inserting Exchange operators
// (Sect. 4.2.2). Flow operators inherit their child's parallelism;
// stop-and-go operators close the region — via local/global aggregation or
// range-partitioned aggregation where applicable (Sect. 4.2.3).
func Parallelize(n plan.Node, o Options) plan.Node {
	if o.MaxDOP <= 1 {
		return n
	}
	p := &parallelizer{o: o}
	out, region := p.walk(n)
	if region != nil {
		out = p.closeRegion(out, region)
	}
	return out
}

// minPartitionRows is the smallest row count worth a scan fraction;
// tables below twice this never parallelize.
const minPartitionRows = 4096

type parallelizer struct {
	o        Options
	sharedID int
}

func (p *parallelizer) dopFor(r *regionInfo) int {
	work := float64(r.rows) * r.cost
	dop := int(work / p.o.GrainWork)
	if dop > p.o.MaxDOP {
		dop = p.o.MaxDOP
	}
	// Partitions below minPartitionRows are not worth a thread (the
	// TableScan decision "to partition the table into N fractions"
	// consults the data volume metadata, Sect. 4.2.2).
	if byRows := r.rows / minPartitionRows; int64(dop) > byRows {
		dop = int(byRows)
	}
	if int64(dop) > r.rows {
		dop = int(r.rows)
	}
	if dop < 1 {
		dop = 1
	}
	return dop
}

// closeRegion terminates an open region: clone the template per fraction
// and merge with an Exchange. Everything above runs serial (the Tableau 9.0
// Exchange has one output).
func (p *parallelizer) closeRegion(template plan.Node, r *regionInfo) plan.Node {
	dop := p.dopFor(r)
	if dop <= 1 {
		return template
	}
	inputs := make([]plan.Node, dop)
	for i := 0; i < dop; i++ {
		idx := i
		inputs[i] = cloneScans(template, func(s *plan.Scan) *plan.Scan {
			c := *s
			c.Part = plan.Partition{Index: idx, Count: dop}
			return &c
		})
	}
	return &plan.Exchange{Inputs: inputs}
}

// cloneScans deep-copies a template, rewriting each non-shared scan with f.
// Shared subtrees keep pointer identity so all clones reference the same
// materialized table.
func cloneScans(n plan.Node, f func(*plan.Scan) *plan.Scan) plan.Node {
	switch x := n.(type) {
	case *plan.Scan:
		return f(x)
	case *plan.Shared:
		return x
	default:
		ch := n.Children()
		newCh := make([]plan.Node, len(ch))
		for i, c := range ch {
			newCh[i] = cloneScans(c, f)
		}
		return n.WithChildren(newCh)
	}
}

// walk returns the (possibly templated) subtree and its open region, nil if
// the subtree is closed/serial.
func (p *parallelizer) walk(n plan.Node) (plan.Node, *regionInfo) {
	switch x := n.(type) {
	case *plan.Scan:
		if x.Part.Count > 0 {
			return x, nil // already partitioned
		}
		return x, &regionInfo{rows: EstimateRows(x), cost: 1, scan: x}

	case *plan.Filter:
		child, r := p.walk(x.Child)
		out := &plan.Filter{Child: child, Pred: x.Pred}
		if r == nil {
			return out, nil
		}
		// The region keeps the scanned volume: the fraction decision is
		// about how much data each thread reads, not post-filter rows.
		r.cost += plan.ExprCost(x.Pred)
		return out, r

	case *plan.Project:
		child, r := p.walk(x.Child)
		out := &plan.Project{Child: child, Exprs: x.Exprs, Names: x.Names}
		if r == nil {
			return out, nil
		}
		for _, e := range x.Exprs {
			r.cost += plan.ExprCost(e)
		}
		return out, r

	case *plan.Join:
		// The left (fact) sub-tree participates in the main parallelism; the
		// right sub-tree forms an independent parallel unit whose result is
		// shared between threads (Sect. 4.2.2, Fig. 4).
		left, r := p.walk(x.Left)
		right := Parallelize(x.Right, p.o)
		if r == nil {
			return &plan.Join{Left: left, Right: right, Kind: x.Kind, LKeys: x.LKeys, RKeys: x.RKeys}, nil
		}
		p.sharedID++
		shared := &plan.Shared{Child: right, ID: p.sharedID}
		out := &plan.Join{Left: left, Right: shared, Kind: x.Kind, LKeys: x.LKeys, RKeys: x.RKeys}
		r.cost += 3
		return out, r

	case *plan.Aggregate:
		return p.walkAggregate(x)

	case *plan.TopN:
		child, r := p.walk(x.Child)
		if r == nil {
			return &plan.TopN{Child: child, N: x.N, Keys: x.Keys}, nil
		}
		dop := p.dopFor(r)
		if dop <= 1 {
			return &plan.TopN{Child: child, N: x.N, Keys: x.Keys}, nil
		}
		// Local/global TopN: each fraction keeps its top N, the global
		// operator re-ranks the survivors (Sect. 4.2.3 applies the
		// local/global approach to TopN as well).
		local := &plan.TopN{Child: child, N: x.N, Keys: x.Keys, Mode: plan.AggLocal}
		merged := p.closeRegion(local, r)
		return &plan.TopN{Child: merged, N: x.N, Keys: x.Keys, Mode: plan.AggGlobal}, nil

	case *plan.Sort:
		child, r := p.walk(x.Child)
		if r == nil {
			return &plan.Sort{Child: child, Keys: x.Keys}, nil
		}
		if p.o.EnableOrderPreservingExchange {
			if dop := p.dopFor(r); dop > 1 {
				// Sort each fraction, then k-way merge: the serial sort above
				// the exchange disappears.
				local := &plan.Sort{Child: child, Keys: x.Keys}
				merged := p.closeRegion(local, r)
				if ex, ok := merged.(*plan.Exchange); ok {
					ex.MergeKeys = x.Keys
					return ex, nil
				}
				return merged, nil
			}
		}
		child = p.closeRegion(child, r)
		return &plan.Sort{Child: child, Keys: x.Keys}, nil

	case *plan.Limit:
		child, r := p.walk(x.Child)
		if r != nil {
			child = p.closeRegion(child, r)
		}
		return &plan.Limit{Child: child, N: x.N}, nil
	}
	return n, nil
}

func (p *parallelizer) walkAggregate(a *plan.Aggregate) (plan.Node, *regionInfo) {
	child, r := p.walk(a.Child)
	serial := a.WithChildren([]plan.Node{child}).(*plan.Aggregate)
	if r == nil {
		return serial, nil
	}
	r.cost += float64(2 + len(a.Aggs))
	dop := p.dopFor(r)
	if dop <= 1 {
		return serial, nil
	}

	// Range-partitioned aggregation (Sect. 4.2.3, Lemmas 1-3): when a
	// permutation of a subset of the group-by columns is a prefix of the
	// table's sort order, partitioning at group boundaries makes the global
	// phase redundant and the whole aggregation runs in parallel.
	if !p.o.DisableRangePartition {
		if out, ok := p.tryRangePartition(a, child, r, dop); ok {
			return out, nil
		}
	}

	// COUNTD cannot be merged from partials; close the region below the
	// aggregate and aggregate serially.
	if hasCountD(a) {
		merged := p.closeRegion(child, r)
		return a.WithChildren([]plan.Node{merged}), nil
	}

	// Local/global aggregation (Fig. 5): partial aggregation per fraction
	// reduces the data entering the Exchange, then a global phase merges.
	return p.localGlobal(a, child, r), nil
}

// tryRangePartition attempts the Exchange-free parallel aggregation.
func (p *parallelizer) tryRangePartition(a *plan.Aggregate, template plan.Node, r *regionInfo, dop int) (plan.Node, bool) {
	scan := r.scan
	if scan == nil || scan.Ranges != nil {
		return nil, false
	}
	// Map group-by ordinals to scan table columns.
	names := make([]string, 0, len(a.GroupBy))
	for _, g := range a.GroupBy {
		sc, ti, ok := traceToScan(template, g)
		if !ok || sc != scan {
			return nil, false
		}
		names = append(names, scan.Table.Cols[ti].Name)
	}
	prefix := scan.Table.SortPrefix(names)
	if prefix == 0 {
		return nil, false
	}
	// Conservative application (skew / low cardinality concerns): require
	// enough distinct leading values to balance the partitions.
	lead := scan.Table.Column(scan.Table.SortKey[0])
	if lead == nil || lead.Stats.Distinct < int64(dop) {
		return nil, false
	}
	bounds := groupAlignedBounds(scan.Table, prefix, dop)
	if len(bounds) < 3 { // fewer than 2 partitions
		return nil, false
	}
	inputs := make([]plan.Node, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		rng := plan.RowRange{From: bounds[i], To: bounds[i+1]}
		cloned := cloneScans(template, func(s *plan.Scan) *plan.Scan {
			c := *s
			c.Ranges = []plan.RowRange{rng}
			c.IndexNote = "range-part"
			return &c
		})
		part := a.WithChildren([]plan.Node{cloned}).(*plan.Aggregate)
		// Each fraction is a contiguous sorted range, so streaming still
		// applies inside the partition when the input is grouped.
		part.Streaming = a.Streaming || GroupedBy(cloned, part.GroupBy)
		inputs = append(inputs, part)
	}
	return &plan.Exchange{Inputs: inputs}, true
}

// groupAlignedBounds picks dop row boundaries aligned to changes of the
// leading `prefix` sort columns, so every group lands in exactly one
// partition (Lemma 2).
func groupAlignedBounds(t *storage.Table, prefix, dop int) []int64 {
	cols := make([]*storage.Column, prefix)
	for i := 0; i < prefix; i++ {
		cols[i] = t.Column(t.SortKey[i])
	}
	samePrefix := func(a, b int64) bool {
		for _, c := range cols {
			if !storage.Equal(c.Value(int(a)), c.Value(int(b)), c.Coll) {
				return false
			}
		}
		return true
	}
	bounds := []int64{0}
	for i := 1; i < dop; i++ {
		cand := t.Rows * int64(i) / int64(dop)
		for cand < t.Rows && cand > 0 && samePrefix(cand-1, cand) {
			cand++
		}
		if cand > bounds[len(bounds)-1] && cand < t.Rows {
			bounds = append(bounds, cand)
		}
	}
	bounds = append(bounds, t.Rows)
	return bounds
}

// localGlobal builds the two-phase parallel aggregation, decomposing AVG
// into SUM and COUNT partials merged and divided at the top.
func (p *parallelizer) localGlobal(a *plan.Aggregate, template plan.Node, r *regionInfo) plan.Node {
	nG := len(a.GroupBy)

	local := &plan.Aggregate{Child: template, GroupBy: a.GroupBy, Mode: plan.AggLocal}
	local.Streaming = GroupedBy(template, a.GroupBy)
	type finalSrc struct {
		avg      bool
		sumCol   int // global output ordinal of the sum partial
		countCol int // global output ordinal of the count partial (avg only)
	}
	var srcs []finalSrc
	var globalAggs []plan.AggSpec
	addPartial := func(fn plan.AggFn, arg int, name string, mergeFn plan.AggFn) int {
		local.Aggs = append(local.Aggs, plan.AggSpec{Fn: fn, ArgIdx: arg, Name: name})
		partialCol := nG + len(local.Aggs) - 1
		globalAggs = append(globalAggs, plan.AggSpec{Fn: mergeFn, ArgIdx: partialCol, Name: name})
		return nG + len(globalAggs) - 1
	}
	for _, spec := range a.Aggs {
		switch spec.Fn {
		case plan.AggCount:
			col := addPartial(plan.AggCount, spec.ArgIdx, spec.Name, plan.AggSum)
			srcs = append(srcs, finalSrc{sumCol: col})
		case plan.AggSum:
			col := addPartial(plan.AggSum, spec.ArgIdx, spec.Name, plan.AggSum)
			srcs = append(srcs, finalSrc{sumCol: col})
		case plan.AggMin:
			col := addPartial(plan.AggMin, spec.ArgIdx, spec.Name, plan.AggMin)
			srcs = append(srcs, finalSrc{sumCol: col})
		case plan.AggMax:
			col := addPartial(plan.AggMax, spec.ArgIdx, spec.Name, plan.AggMax)
			srcs = append(srcs, finalSrc{sumCol: col})
		case plan.AggAvg:
			s := addPartial(plan.AggSum, spec.ArgIdx, fmt.Sprintf("$sum_%s", spec.Name), plan.AggSum)
			c := addPartial(plan.AggCount, spec.ArgIdx, fmt.Sprintf("$cnt_%s", spec.Name), plan.AggSum)
			srcs = append(srcs, finalSrc{avg: true, sumCol: s, countCol: c})
		}
	}

	merged := p.closeRegion(local, r)
	global := &plan.Aggregate{Child: merged, Mode: plan.AggGlobal, Aggs: globalAggs}
	for i := 0; i < nG; i++ {
		global.GroupBy = append(global.GroupBy, i)
	}

	needsProject := false
	for _, s := range srcs {
		if s.avg {
			needsProject = true
		}
	}
	if !needsProject {
		return global
	}
	// Final projection: pass groups through, divide AVG partials.
	gSchema := global.Schema()
	proj := &plan.Project{Child: global}
	for i := 0; i < nG; i++ {
		proj.Exprs = append(proj.Exprs, &plan.ColRef{Name: gSchema[i].Name, Idx: i, Typ: gSchema[i].Type, Coll: gSchema[i].Coll})
		proj.Names = append(proj.Names, gSchema[i].Name)
	}
	for k, s := range srcs {
		name := a.Aggs[k].Name
		if !s.avg {
			proj.Exprs = append(proj.Exprs, &plan.ColRef{Name: gSchema[s.sumCol].Name, Idx: s.sumCol, Typ: gSchema[s.sumCol].Type, Coll: gSchema[s.sumCol].Coll})
			proj.Names = append(proj.Names, name)
			continue
		}
		sum := &plan.ColRef{Name: gSchema[s.sumCol].Name, Idx: s.sumCol, Typ: gSchema[s.sumCol].Type}
		cnt := &plan.ColRef{Name: gSchema[s.countCol].Name, Idx: s.countCol, Typ: gSchema[s.countCol].Type}
		proj.Exprs = append(proj.Exprs, &plan.Arith{Op: plan.ArithDiv, L: sum, R: cnt, Typ: storage.TFloat})
		proj.Names = append(proj.Names, name)
	}
	return proj
}
