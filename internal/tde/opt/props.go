// Package opt implements the TDE's rule-based optimizer (Sect. 4.1.2 and
// 4.2): property derivation (sortedness, uniqueness), classic rewrites
// (constant folding, predicate simplification, filter push-down, column
// pruning, join culling), encoding-aware rewrites (RLE index-range scans,
// Sect. 4.3), and bottom-up parallel plan generation with the Exchange
// operator, local/global aggregation and range-partitioned aggregation
// (Sect. 4.2.2-4.2.3).
package opt

import (
	"vizq/internal/tde/plan"
)

// Ordering derives the output sort order of a node as a list of column
// ordinals (major first, all ascending — table sort keys are ascending).
// An empty slice means no known order. Property derivation follows
// Sect. 4.2.4: sorting is tracked; the Exchange operator disturbs it.
func Ordering(n plan.Node) []int {
	switch x := n.(type) {
	case *plan.Scan:
		// The table order maps to output ordinals only while the sort-key
		// columns are projected in prefix order.
		var out []int
		for _, key := range x.Table.SortKey {
			ti := x.Table.ColumnIndex(key)
			found := -1
			for oi, ci := range x.ColIdxs {
				if ci == ti {
					found = oi
					break
				}
			}
			if found < 0 {
				break
			}
			out = append(out, found)
		}
		return out
	case *plan.Filter:
		return Ordering(x.Child)
	case *plan.Project:
		child := Ordering(x.Child)
		var out []int
		for _, c := range child {
			found := -1
			for oi, e := range x.Exprs {
				if cr, ok := e.(*plan.ColRef); ok && cr.Idx == c {
					found = oi
					break
				}
			}
			if found < 0 {
				break
			}
			out = append(out, found)
		}
		return out
	case *plan.Join:
		// Hash join preserves probe (left) order.
		return Ordering(x.Left)
	case *plan.Sort:
		var out []int
		for _, k := range x.Keys {
			if k.Desc {
				break
			}
			out = append(out, k.Col)
		}
		return out
	case *plan.Limit:
		return Ordering(x.Child)
	case *plan.Shared:
		return Ordering(x.Child)
	case *plan.Exchange:
		// An order-preserving (merging) exchange keeps its keys' order.
		var out []int
		for _, k := range x.MergeKeys {
			if k.Desc {
				break
			}
			out = append(out, k.Col)
		}
		return out
	}
	// Aggregate, TopN, plain Exchange: no derived order.
	return nil
}

// GroupedBy reports whether the node's output rows arrive grouped by the
// given column set: true when the first len(cols) columns of the derived
// ordering are a permutation of cols (sorting is a sufficient condition for
// grouping, Sect. 4.2.4).
func GroupedBy(n plan.Node, cols []int) bool {
	if len(cols) == 0 {
		return false
	}
	ord := Ordering(n)
	if len(ord) < len(cols) {
		return false
	}
	want := make(map[int]bool, len(cols))
	for _, c := range cols {
		want[c] = true
	}
	for _, o := range ord[:len(cols)] {
		if !want[o] {
			return false
		}
	}
	return true
}

// Unique reports whether the given output columns form a unique key of the
// node's result. Used by join culling: an n:1 join against a unique key
// cannot duplicate or drop probe rows (for left joins; inner joins
// additionally rely on referential integrity).
func Unique(n plan.Node, cols []int) bool {
	switch x := n.(type) {
	case *plan.Scan:
		names := make([]string, 0, len(cols))
		for _, c := range cols {
			names = append(names, x.Table.Cols[x.ColIdxs[c]].Name)
		}
		return x.Table.HasUniqueKey(names)
	case *plan.Filter:
		// Removing rows preserves uniqueness.
		return Unique(x.Child, cols)
	case *plan.Project:
		childCols := make([]int, 0, len(cols))
		for _, c := range cols {
			cr, ok := x.Exprs[c].(*plan.ColRef)
			if !ok {
				return false
			}
			childCols = append(childCols, cr.Idx)
		}
		return Unique(x.Child, childCols)
	case *plan.Aggregate:
		// The group-by columns are unique in the output by construction.
		if len(x.GroupBy) == 0 {
			return false
		}
		covered := 0
		for _, c := range cols {
			if c < len(x.GroupBy) {
				covered++
			}
		}
		return covered == len(x.GroupBy)
	case *plan.Shared:
		return Unique(x.Child, cols)
	}
	return false
}

// traceToScan follows a column ordinal down through Filter/Project chains to
// the underlying Scan, returning the scan and the table column index. It
// fails (ok=false) when the column is computed or the chain contains other
// operators.
func traceToScan(n plan.Node, col int) (*plan.Scan, int, bool) {
	switch x := n.(type) {
	case *plan.Scan:
		if col < 0 || col >= len(x.ColIdxs) {
			return nil, 0, false
		}
		return x, x.ColIdxs[col], true
	case *plan.Filter:
		return traceToScan(x.Child, col)
	case *plan.Project:
		cr, ok := x.Exprs[col].(*plan.ColRef)
		if !ok {
			return nil, 0, false
		}
		return traceToScan(x.Child, cr.Idx)
	}
	return nil, 0, false
}

// EstimateRows approximates the node's output cardinality from table
// metadata, with crude selectivity guesses for filters.
func EstimateRows(n plan.Node) int64 {
	switch x := n.(type) {
	case *plan.Scan:
		if x.Ranges != nil {
			var total int64
			for _, r := range x.Ranges {
				total += r.To - r.From
			}
			return total
		}
		return x.Table.Rows
	case *plan.Filter:
		est := EstimateRows(x.Child) / 3
		if est < 1 {
			est = 1
		}
		return est
	case *plan.Project:
		return EstimateRows(x.Child)
	case *plan.Join:
		return EstimateRows(x.Left)
	case *plan.Aggregate:
		child := EstimateRows(x.Child)
		if len(x.GroupBy) == 0 {
			return 1
		}
		distinct := int64(1)
		for _, g := range x.GroupBy {
			if sc, ti, ok := traceToScan(x.Child, g); ok {
				d := sc.Table.Cols[ti].Stats.Distinct
				if d > 0 {
					distinct *= d
				}
			} else {
				distinct *= 100
			}
			if distinct > child {
				return child
			}
		}
		return distinct
	case *plan.Sort, *plan.Shared:
		return EstimateRows(n.Children()[0])
	case *plan.TopN:
		return int64(x.N)
	case *plan.Limit:
		return int64(x.N)
	case *plan.Exchange:
		var total int64
		for _, c := range x.Inputs {
			total += EstimateRows(c)
		}
		return total
	}
	return 1000
}
