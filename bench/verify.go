package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"vizq/internal/query"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/storage"
)

// floatTolerance is the relative error allowed between a rendered measure
// and the reference: parallel plans, roll-ups and AVG re-derivation sum
// floats in different orders.
const floatTolerance = 1e-9

// memoRowBudget bounds the reference results kept for reuse.
const memoRowBudget = 2_000_000

// verifier checks rendered zone results against engine.QuerySerial run on
// the same database: no cache, no fusion, no wire, no parallel plan.
type verifier struct {
	eng *engine.Engine

	mu       sync.Mutex
	memo     map[string]*reference
	memoRows int
}

// reference is a serial result indexed by its dimension values.
type reference struct {
	res   *exec.Result
	byKey map[string]int
}

func newVerifier(eng *engine.Engine) *verifier {
	return &verifier{eng: eng, memo: map[string]*reference{}}
}

// check compares got, the rendered result of q, to the reference, ignoring
// row order. A top-n query is checked against the full ranking, so ties at
// the cut are accepted whichever way they fell.
func (v *verifier) check(ctx context.Context, q *query.Query, got *exec.Result) error {
	if got == nil {
		return fmt.Errorf("no result")
	}
	full := q
	if q.N > 0 {
		full = q.Clone()
		full.N = 0
	}
	ref, err := v.reference(ctx, full)
	if err != nil {
		return err
	}
	dims := make([]int, len(q.Dims))
	for i, d := range q.Dims {
		if dims[i] = got.ColumnIndex(d.Name()); dims[i] < 0 {
			return fmt.Errorf("result lacks dimension %q", d.Name())
		}
	}
	switch {
	case q.N > 0 && got.N != min(q.N, ref.res.N):
		return fmt.Errorf("top-%d returned %d rows of %d", q.N, got.N, ref.res.N)
	case q.N == 0 && got.N != ref.res.N:
		return fmt.Errorf("%d rows, reference has %d", got.N, ref.res.N)
	}
	type measureCols struct {
		name     string
		got, ref int
	}
	measures := make([]measureCols, len(q.Measures))
	for i, m := range q.Measures {
		measures[i] = measureCols{m.Name(), got.ColumnIndex(m.Name()), ref.res.ColumnIndex(m.Name())}
		if measures[i].got < 0 || measures[i].ref < 0 {
			return fmt.Errorf("result lacks measure %q", m.Name())
		}
	}
	seen := make(map[string]bool, got.N)
	for r := 0; r < got.N; r++ {
		key := rowKey(got, dims, r)
		rr, ok := ref.byKey[key]
		if !ok {
			return fmt.Errorf("row %q is not in the reference", key)
		}
		if seen[key] {
			return fmt.Errorf("row %q appears twice", key)
		}
		seen[key] = true
		for _, m := range measures {
			if !closeEnough(got.Value(r, m.got), ref.res.Value(rr, m.ref)) {
				return fmt.Errorf("row %q measure %s = %s, reference %s", key, m.name,
					got.Value(r, m.got), ref.res.Value(rr, m.ref))
			}
		}
	}
	if q.N > 0 && got.N < ref.res.N {
		return checkCut(q, ref, seen)
	}
	return nil
}

// checkCut verifies a truncated top-n: every reference row that ranks
// strictly above the n-th must have been returned.
func checkCut(q *query.Query, ref *reference, returned map[string]bool) error {
	oc := ref.res.ColumnIndex(q.OrderBy[0].Col)
	if oc < 0 {
		return fmt.Errorf("reference lacks order column %q", q.OrderBy[0].Col)
	}
	coll := ref.res.Schema[oc].Coll
	vals := make([]storage.Value, ref.res.N)
	for r := range vals {
		vals[r] = ref.res.Value(r, oc)
	}
	better := func(a, b storage.Value) bool {
		if q.OrderBy[0].Desc {
			return storage.Compare(a, b, coll) > 0
		}
		return storage.Compare(a, b, coll) < 0
	}
	sort.Slice(vals, func(i, j int) bool { return better(vals[i], vals[j]) })
	cut := vals[q.N-1]
	for key, r := range ref.byKey {
		if better(ref.res.Value(r, oc), cut) && !returned[key] {
			return fmt.Errorf("top-%d lacks row %q, which ranks above the cut", q.N, key)
		}
	}
	return nil
}

func (v *verifier) reference(ctx context.Context, q *query.Query) (*reference, error) {
	text := q.ToTQL()
	v.mu.Lock()
	ref := v.memo[text]
	v.mu.Unlock()
	if ref != nil {
		return ref, nil
	}
	res, err := v.eng.QuerySerial(ctx, text)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	dims := make([]int, len(q.Dims))
	for i, d := range q.Dims {
		if dims[i] = res.ColumnIndex(d.Name()); dims[i] < 0 {
			return nil, fmt.Errorf("reference lacks dimension %q", d.Name())
		}
	}
	ref = &reference{res: res, byKey: make(map[string]int, res.N)}
	for r := 0; r < res.N; r++ {
		ref.byKey[rowKey(res, dims, r)] = r
	}
	v.mu.Lock()
	if v.memoRows > memoRowBudget {
		v.memo, v.memoRows = map[string]*reference{}, 0
	}
	v.memo[text] = ref
	v.memoRows += res.N + 1
	v.mu.Unlock()
	return ref, nil
}

// rowKey identifies a row by its dimension values. Case is folded on both
// sides: the flights dimensions are case-insensitive and no two of their
// values differ by case alone.
func rowKey(res *exec.Result, dims []int, r int) string {
	var b strings.Builder
	for _, c := range dims {
		v := res.Value(r, c)
		switch {
		case v.Null:
			b.WriteString("\x00")
		case v.Type == storage.TStr:
			b.WriteString(strings.ToLower(v.S))
		default:
			b.WriteString(v.String())
		}
		b.WriteByte(0x1f)
	}
	return b.String()
}

func closeEnough(a, b storage.Value) bool {
	if a.Null || b.Null {
		return a.Null && b.Null
	}
	if a.Type == storage.TStr || b.Type == storage.TStr {
		return a.Type == b.Type && a.S == b.S
	}
	x, y := numeric(a), numeric(b)
	return math.Abs(x-y) <= floatTolerance*math.Max(math.Abs(x), math.Abs(y))
}

func numeric(v storage.Value) float64 {
	if v.Type == storage.TFloat {
		return v.F
	}
	return float64(v.I)
}
