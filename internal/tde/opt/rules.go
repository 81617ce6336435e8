package opt

import (
	"fmt"

	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// transformUp applies f bottom-up across the tree.
func transformUp(n plan.Node, f func(plan.Node) plan.Node) plan.Node {
	ch := n.Children()
	if len(ch) > 0 {
		newCh := make([]plan.Node, len(ch))
		changed := false
		for i, c := range ch {
			newCh[i] = transformUp(c, f)
			if newCh[i] != c {
				changed = true
			}
		}
		if changed {
			n = n.WithChildren(newCh)
		}
	}
	return f(n)
}

// foldNode constant-folds the expressions carried by a node.
func foldNode(n plan.Node) plan.Node {
	switch x := n.(type) {
	case *plan.Filter:
		pred := foldExpr(x.Pred)
		if lit, ok := pred.(*plan.Lit); ok && lit.Val.Bool() && !lit.Val.Null {
			return x.Child // always-true filter disappears
		}
		if pred != x.Pred {
			return &plan.Filter{Child: x.Child, Pred: pred}
		}
	case *plan.Project:
		exprs := make([]plan.Expr, len(x.Exprs))
		changed := false
		for i, e := range x.Exprs {
			exprs[i] = foldExpr(e)
			if exprs[i] != e {
				changed = true
			}
		}
		if changed {
			return &plan.Project{Child: x.Child, Exprs: exprs, Names: x.Names}
		}
	}
	return n
}

// pushDownFilters moves predicates toward the scans: merging adjacent
// filters, sliding through projections and sorts, splitting conjuncts
// across join sides, and pushing group-column predicates below aggregates.
func pushDownFilters(n plan.Node) plan.Node {
	for i := 0; i < 8; i++ { // fixpoint within a small bound
		changed := false
		n = transformUp(n, func(m plan.Node) plan.Node {
			f, ok := m.(*plan.Filter)
			if !ok {
				return m
			}
			if out := pushFilterOnce(f); out != nil {
				changed = true
				return out
			}
			return m
		})
		if !changed {
			return n
		}
	}
	return n
}

// pushFilterOnce applies one push-down step to a filter, or returns nil.
func pushFilterOnce(f *plan.Filter) plan.Node {
	switch child := f.Child.(type) {
	case *plan.Filter:
		return &plan.Filter{
			Child: child.Child,
			Pred:  plan.AndJoin(append(plan.AndSplit(child.Pred), plan.AndSplit(f.Pred)...)),
		}
	case *plan.Project:
		// Substitute projected expressions into the predicate.
		pred := plan.Rewrite(f.Pred, func(x plan.Expr) plan.Expr {
			if cr, ok := x.(*plan.ColRef); ok {
				return child.Exprs[cr.Idx]
			}
			return x
		})
		return &plan.Project{
			Child: &plan.Filter{Child: child.Child, Pred: pred},
			Exprs: child.Exprs, Names: child.Names,
		}
	case *plan.Sort:
		return &plan.Sort{Child: &plan.Filter{Child: child.Child, Pred: f.Pred}, Keys: child.Keys}
	case *plan.Join:
		nL := len(child.Left.Schema())
		var leftC, rightC, keep []plan.Expr
		for _, c := range plan.AndSplit(f.Pred) {
			refs := plan.ReferencedCols(c)
			left, right := false, false
			for _, r := range refs {
				if r < nL {
					left = true
				} else {
					right = true
				}
			}
			switch {
			case left && !right:
				leftC = append(leftC, c)
			case right && !left && child.Kind == plan.JoinInner:
				m := map[int]int{}
				for _, r := range refs {
					m[r] = r - nL
				}
				rightC = append(rightC, plan.RemapCols(c, m))
			default:
				keep = append(keep, c)
			}
		}
		if leftC == nil && rightC == nil {
			return nil
		}
		l, r := child.Left, child.Right
		if leftC != nil {
			l = &plan.Filter{Child: l, Pred: plan.AndJoin(leftC)}
		}
		if rightC != nil {
			r = &plan.Filter{Child: r, Pred: plan.AndJoin(rightC)}
		}
		var out plan.Node = &plan.Join{Left: l, Right: r, Kind: child.Kind, LKeys: child.LKeys, RKeys: child.RKeys}
		if keep != nil {
			out = &plan.Filter{Child: out, Pred: plan.AndJoin(keep)}
		}
		return out
	case *plan.Aggregate:
		nG := len(child.GroupBy)
		var push, keep []plan.Expr
		for _, c := range plan.AndSplit(f.Pred) {
			ok := true
			m := map[int]int{}
			for _, r := range plan.ReferencedCols(c) {
				if r >= nG {
					ok = false
					break
				}
				m[r] = child.GroupBy[r]
			}
			if ok {
				push = append(push, plan.RemapCols(c, m))
			} else {
				keep = append(keep, c)
			}
		}
		if push == nil {
			return nil
		}
		agg := child.WithChildren([]plan.Node{&plan.Filter{Child: child.Child, Pred: plan.AndJoin(push)}})
		if keep != nil {
			return &plan.Filter{Child: agg, Pred: plan.AndJoin(keep)}
		}
		return agg
	}
	return nil
}

// simplifyDomains removes filter conjuncts that the scan column statistics
// prove redundant or contradictory.
func simplifyDomains(n plan.Node) plan.Node {
	return transformUp(n, func(m plan.Node) plan.Node {
		f, ok := m.(*plan.Filter)
		if !ok {
			return m
		}
		scan, ok := f.Child.(*plan.Scan)
		if !ok {
			return m
		}
		pred := domainSimplify(f.Pred, scan)
		if lit, ok := pred.(*plan.Lit); ok && lit.Val.Bool() && !lit.Val.Null {
			return scan
		}
		if pred != f.Pred {
			return &plan.Filter{Child: scan, Pred: pred}
		}
		return m
	})
}

// Options tunes the optimizer.
type Options struct {
	// MaxDOP bounds the degree of parallelism; <= 1 disables parallel plans.
	MaxDOP int
	// GrainWork is the amount of rows*cost one partition should own before
	// another is worth spawning.
	GrainWork float64
	// RLEIndexMaxSelectivity bounds the fraction of rows a predicate may
	// select for the RLE index-range rewrite to fire.
	RLEIndexMaxSelectivity float64
	// DisableRLEIndex turns the Sect. 4.3 rewrite off.
	DisableRLEIndex bool
	// DisableRangePartition turns off range-partitioned parallel aggregation
	// (the optimizer then always uses local/global aggregation).
	DisableRangePartition bool
	// EnableOrderPreservingExchange lets Sort parallelize as per-fraction
	// sorts merged by an order-preserving Exchange (the operator capability
	// of Sect. 4.2.1, which the Tableau 9.0 optimizer leaves unused — off by
	// default to match the shipped behaviour).
	//
	//vizlint:allow unused -- kept as a decision: the ablation benchmark and merge tests run the Sect. 4.2.1 capability
	EnableOrderPreservingExchange bool
}

// DefaultOptions mirror the shipping configuration.
func DefaultOptions() Options {
	return Options{
		MaxDOP:                 4,
		GrainWork:              1 << 17,
		RLEIndexMaxSelectivity: 0.3,
	}
}

// Logical runs the rule-based logical rewrites (no parallelization).
func Logical(n plan.Node, o Options) plan.Node {
	n = transformUp(n, foldNode)
	n = pushDownFilters(n)
	n = transformUp(n, foldNode)
	n = simplifyDomains(n)
	n = pruneAndCull(n)
	if !o.DisableRLEIndex {
		n = applyRLEIndex(n, o)
	}
	n = markStreaming(n)
	return n
}

// Optimize runs the full pipeline: logical rewrites, then parallel plan
// generation.
func Optimize(n plan.Node, o Options) plan.Node {
	n = Logical(n, o)
	return Parallelize(n, o)
}

// ---- column pruning + join culling ----

func pruneAndCull(n plan.Node) plan.Node {
	need := make([]bool, len(n.Schema()))
	for i := range need {
		need[i] = true
	}
	out, _ := prune(n, need)
	return out
}

// prune narrows every operator to the columns its ancestors need, returning
// the rewritten node and a mapping old-ordinal -> new-ordinal (-1 when
// dropped). Join culling happens here: when nothing from the n:1 side of a
// join is needed beyond the keys, the join is removed.
func prune(n plan.Node, need []bool) (plan.Node, []int) {
	switch x := n.(type) {
	case *plan.Scan:
		var keep []int
		mapping := make([]int, len(x.ColIdxs))
		for i := range x.ColIdxs {
			if need[i] {
				mapping[i] = len(keep)
				keep = append(keep, x.ColIdxs[i])
			} else {
				mapping[i] = -1
			}
		}
		if len(keep) == 0 {
			// Always keep one column so the scan produces row counts.
			keep = append(keep, x.ColIdxs[0])
			mapping[0] = 0
		}
		c := *x
		c.ColIdxs = keep
		return &c, mapping

	case *plan.Filter:
		childNeed := append([]bool(nil), need...)
		for _, r := range plan.ReferencedCols(x.Pred) {
			childNeed[r] = true
		}
		child, m := prune(x.Child, childNeed)
		return &plan.Filter{Child: child, Pred: remapExpr(x.Pred, m)}, m

	case *plan.Project:
		childNeed := make([]bool, len(x.Child.Schema()))
		for i, e := range x.Exprs {
			if !need[i] {
				continue
			}
			for _, r := range plan.ReferencedCols(e) {
				childNeed[r] = true
			}
		}
		ensureOne(childNeed)
		child, m := prune(x.Child, childNeed)
		out := &plan.Project{Child: child}
		mapping := make([]int, len(x.Exprs))
		for i, e := range x.Exprs {
			if !need[i] {
				mapping[i] = -1
				continue
			}
			mapping[i] = len(out.Exprs)
			out.Exprs = append(out.Exprs, remapExpr(e, m))
			out.Names = append(out.Names, x.Names[i])
		}
		if len(out.Exprs) == 0 {
			// Nothing needed: keep the first output to preserve row counts.
			out.Exprs = append(out.Exprs, remapExpr(x.Exprs[0], m))
			out.Names = append(out.Names, x.Names[0])
			mapping[0] = 0
		}
		return out, mapping

	case *plan.Join:
		nL := len(x.Left.Schema())
		nR := len(x.Right.Schema())
		needL := make([]bool, nL)
		needR := make([]bool, nR)
		for i := 0; i < nL; i++ {
			needL[i] = need[i]
		}
		for j := 0; j < nR; j++ {
			needR[j] = need[nL+j]
		}

		// Join culling: the right side contributes nothing beyond its keys,
		// and each probe row matches at most one build row.
		if cullable(x, needR) {
			childNeedL := append([]bool(nil), needL...)
			for _, k := range x.LKeys {
				childNeedL[k] = true
			}
			left, mL := prune(x.Left, childNeedL)
			mapping := make([]int, nL+nR)
			copy(mapping, mL)
			for j := 0; j < nR; j++ {
				mapping[nL+j] = -1
				// A needed right key column aliases the matching left key.
				for ki, rk := range x.RKeys {
					if rk == j && needR[j] {
						mapping[nL+j] = mL[x.LKeys[ki]]
					}
				}
			}
			return left, mapping
		}

		for _, k := range x.LKeys {
			needL[k] = true
		}
		for _, k := range x.RKeys {
			needR[k] = true
		}
		left, mL := prune(x.Left, needL)
		right, mR := prune(x.Right, needR)
		j := &plan.Join{Left: left, Right: right, Kind: x.Kind}
		for ki := range x.LKeys {
			j.LKeys = append(j.LKeys, mL[x.LKeys[ki]])
			j.RKeys = append(j.RKeys, mR[x.RKeys[ki]])
		}
		nLNew := len(left.Schema())
		mapping := make([]int, nL+nR)
		for i := 0; i < nL; i++ {
			mapping[i] = mL[i]
		}
		for jx := 0; jx < nR; jx++ {
			if mR[jx] >= 0 {
				mapping[nL+jx] = nLNew + mR[jx]
			} else {
				mapping[nL+jx] = -1
			}
		}
		return j, mapping

	case *plan.Aggregate:
		nG := len(x.GroupBy)
		childNeed := make([]bool, len(x.Child.Schema()))
		for _, g := range x.GroupBy {
			childNeed[g] = true
		}
		var keptAggs []plan.AggSpec
		mapping := make([]int, nG+len(x.Aggs))
		for i := 0; i < nG; i++ {
			mapping[i] = i
		}
		for k, a := range x.Aggs {
			if !need[nG+k] {
				mapping[nG+k] = -1
				continue
			}
			if a.ArgIdx >= 0 {
				childNeed[a.ArgIdx] = true
			}
			mapping[nG+k] = nG + len(keptAggs)
			keptAggs = append(keptAggs, a)
		}
		ensureOne(childNeed)
		child, m := prune(x.Child, childNeed)
		out := &plan.Aggregate{Child: child, Mode: x.Mode, Streaming: x.Streaming}
		for _, g := range x.GroupBy {
			out.GroupBy = append(out.GroupBy, m[g])
		}
		for _, a := range keptAggs {
			na := a
			if na.ArgIdx >= 0 {
				na.ArgIdx = m[na.ArgIdx]
			}
			out.Aggs = append(out.Aggs, na)
		}
		return out, mapping

	case *plan.Sort:
		childNeed := append([]bool(nil), need...)
		for _, k := range x.Keys {
			childNeed[k.Col] = true
		}
		child, m := prune(x.Child, childNeed)
		keys := make([]plan.SortKey, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = plan.SortKey{Col: m[k.Col], Desc: k.Desc}
		}
		return &plan.Sort{Child: child, Keys: keys}, m

	case *plan.TopN:
		childNeed := append([]bool(nil), need...)
		for _, k := range x.Keys {
			childNeed[k.Col] = true
		}
		child, m := prune(x.Child, childNeed)
		keys := make([]plan.SortKey, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = plan.SortKey{Col: m[k.Col], Desc: k.Desc}
		}
		return &plan.TopN{Child: child, N: x.N, Keys: keys, Mode: x.Mode}, m

	case *plan.Limit:
		child, m := prune(x.Child, need)
		return &plan.Limit{Child: child, N: x.N}, m
	}

	// Unknown node: leave untouched with identity mapping.
	mapping := make([]int, len(n.Schema()))
	for i := range mapping {
		mapping[i] = i
	}
	return n, mapping
}

func ensureOne(need []bool) {
	for _, n := range need {
		if n {
			return
		}
	}
	if len(need) > 0 {
		need[0] = true
	}
}

// cullable decides whether the join's right side can be removed entirely
// ("removal of unnecessary joins", Sect. 4.1.2 / 6). Inner n:1 joins are
// culled too: Tableau's join culling assumes the modeled relationship has
// referential integrity.
func cullable(j *plan.Join, needR []bool) bool {
	for idx, needed := range needR {
		if !needed {
			continue
		}
		isKey := false
		for _, rk := range j.RKeys {
			if rk == idx {
				isKey = true
				break
			}
		}
		if !isKey {
			return false
		}
	}
	return Unique(j.Right, j.RKeys)
}

func remapExpr(e plan.Expr, m []int) plan.Expr {
	mm := make(map[int]int, len(m))
	for old, nw := range m {
		if nw >= 0 {
			mm[old] = nw
		}
	}
	return plan.RemapCols(e, mm)
}

// ---- RLE index-range rewrite (Sect. 4.3) ----

// applyRLEIndex rewrites selective filters over run-length encoded columns
// into range-restricted scans: the run list acts as the IndexTable
// (value, count, start) and the qualifying runs become the scan's row
// ranges, skipping everything else on disk.
func applyRLEIndex(n plan.Node, o Options) plan.Node {
	return transformUp(n, func(m plan.Node) plan.Node {
		f, ok := m.(*plan.Filter)
		if !ok {
			return m
		}
		scan, ok := f.Child.(*plan.Scan)
		if !ok || scan.Ranges != nil {
			return m
		}
		conjuncts := plan.AndSplit(f.Pred)
		bestIdx := -1
		var bestRanges []plan.RowRange
		bestRows := int64(1 << 62)
		var bestCol string
		for ci, c := range conjuncts {
			col, ok := singleColumn(c)
			if !ok {
				continue
			}
			tcol := scan.Table.Cols[scan.ColIdxs[col]]
			runs, isRLE := tcol.RLERuns()
			if !isRLE {
				continue
			}
			ranges, rows, ok := matchRuns(c, col, tcol, runs, scan)
			if !ok {
				continue
			}
			if float64(rows) > o.RLEIndexMaxSelectivity*float64(scan.Table.Rows) {
				continue
			}
			if rows < bestRows {
				bestRows = rows
				bestIdx = ci
				bestRanges = ranges
				bestCol = tcol.Name
			}
		}
		if bestIdx < 0 {
			return m
		}
		ns := *scan
		ns.Ranges = bestRanges
		ns.IndexNote = fmt.Sprintf("index(%s)", bestCol)
		rest := append(append([]plan.Expr{}, conjuncts[:bestIdx]...), conjuncts[bestIdx+1:]...)
		if len(rest) == 0 {
			return &ns
		}
		return &plan.Filter{Child: &ns, Pred: plan.AndJoin(rest)}
	})
}

// singleColumn reports the single column ordinal a predicate references.
func singleColumn(e plan.Expr) (int, bool) {
	refs := plan.ReferencedCols(e)
	if len(refs) != 1 {
		return 0, false
	}
	return refs[0], true
}

// matchRuns evaluates the predicate once per run and collects the row
// ranges of qualifying runs (coalescing adjacent ones).
func matchRuns(pred plan.Expr, col int, tcol *storage.Column, runs []storage.Run, scan *plan.Scan) ([]plan.RowRange, int64, bool) {
	width := len(scan.ColIdxs)
	var ranges []plan.RowRange
	var rows int64
	for _, r := range runs {
		if r.Null {
			continue // null predicate never holds
		}
		cols := make([]*storage.Vector, width)
		v := &storage.Vector{Type: tcol.Type, I: []int64{r.Value}}
		if tcol.Dict != nil {
			v.Type = storage.TStr
			v.Dict = tcol.Dict
		} else if tcol.Type == storage.TFloat {
			return nil, 0, false // RLE data is integer-backed
		}
		cols[col] = v
		res, err := exec.EvalExpr(pred, &storage.Batch{Cols: cols, N: 1})
		if err != nil {
			return nil, 0, false
		}
		if res.I[0] != 0 && !res.IsNull(0) {
			if n := len(ranges); n > 0 && ranges[n-1].To == r.Start {
				ranges[n-1].To = r.Start + r.Count
			} else {
				ranges = append(ranges, plan.RowRange{From: r.Start, To: r.Start + r.Count})
			}
			rows += r.Count
		}
	}
	return ranges, rows, true
}

// markStreaming flags aggregates whose input is already grouped by the
// group-by columns, so a streaming implementation applies (Sect. 4.2.4).
func markStreaming(n plan.Node) plan.Node {
	return transformUp(n, func(m plan.Node) plan.Node {
		a, ok := m.(*plan.Aggregate)
		if !ok || a.Streaming || hasCountD(a) {
			return m
		}
		if GroupedBy(a.Child, a.GroupBy) {
			c := *a
			c.Streaming = true
			return &c
		}
		return m
	})
}

func hasCountD(a *plan.Aggregate) bool {
	for _, s := range a.Aggs {
		if s.Fn == plan.AggCountD {
			return true
		}
	}
	return false
}
