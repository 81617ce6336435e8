package engine_test

import (
	"cmp"
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"vizq/internal/cache"
	"vizq/internal/query"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/opt"
	"vizq/internal/tde/storage"
)

// floatCase is a predicate on the float column x, as a filter or as TQL,
// and the rows it keeps under cmp.Compare's order, worked out here without
// the engine. A TQL predicate (no filter form, a literal on the left, a NaN
// that is no literal) skips Derive. A case with neither keeps every row.
type floatCase struct {
	f    query.Filter
	tql  string
	keep func(x float64) bool
}

// TestFloatOrderAgreesOnEveryPath: every comparison, IN with and without a
// NaN member, MIN/MAX, GROUP BY, ORDER BY and top-n over a float column
// holding NaN, a negative-payload NaN, ±Inf, ±0 and nulls give one answer
// through Query, QueryReference, a forced DOP 3 and cache.Derive, and the
// reference gives the rows cmp.Compare's order keeps: a NaN equals a NaN
// and sorts below every number. The second table is {2, NaN, 3}, on which
// the comparison kernels, the folding of bounds against statistics and IN
// once gave three different answers.
func TestFloatOrderAgreesOnEveryPath(t *testing.T) {
	nan, negNaN, inf := math.NaN(), math.Float64frombits(0xfff8_0000_0000_0001), math.Inf(1)
	fv := storage.FloatValue
	c := func(lit float64, holds func(int) bool) func(float64) bool {
		return func(x float64) bool { return holds(cmp.Compare(x, lit)) }
	}
	in := func(vals ...float64) func(float64) bool {
		return func(x float64) bool {
			for _, v := range vals {
				if cmp.Compare(x, v) == 0 {
					return true
				}
			}
			return false
		}
	}
	cases := []floatCase{
		{keep: func(float64) bool { return true }},
		{f: query.GtFilter("x", fv(1)), keep: c(1, func(c int) bool { return c > 0 })},
		{f: query.RangeFilter("x", fv(5), fv(5)), keep: c(5, func(c int) bool { return c == 0 })},
		{f: query.RangeFilter("x", fv(5), storage.NullValue(storage.TFloat)), keep: c(5, func(c int) bool { return c >= 0 })},
		{f: query.InFilter("x", fv(5)), keep: in(5)},
		{f: query.Filter{Col: "x", Kind: query.FilterRange, Hi: fv(1), HiSet: true, HiOpen: true}, keep: c(1, func(c int) bool { return c < 0 })},
		{f: query.RangeFilter("x", storage.NullValue(storage.TFloat), fv(0)), keep: c(0, func(c int) bool { return c <= 0 })},
		{f: query.RangeFilter("x", fv(-inf), fv(inf)), keep: func(x float64) bool { return !math.IsNaN(x) }},
		{f: query.RangeFilter("x", fv(nan), fv(2)), keep: c(2, func(c int) bool { return c <= 0 })},
		{f: query.InFilter("x", fv(nan), fv(2)), keep: in(nan, 2)},
		{f: query.InFilter("x", fv(negNaN)), keep: in(nan)},
		{f: query.InFilter("x", fv(math.Copysign(0, -1)), storage.IntValue(3)), keep: in(0, 3)},
		{tql: "(!= x 5.0)", keep: c(5, func(c int) bool { return c != 0 })},
		{tql: "(< 2.0 x)", keep: c(2, func(c int) bool { return c > 0 })},
		{tql: "(= x (sqrt -1.0))", keep: in(nan)},
		{tql: "(<= x (sqrt -1.0))", keep: in(nan)},
		{tql: "(> x nan)", keep: func(x float64) bool { return !math.IsNaN(x) }},
	}
	for _, tbl := range []struct {
		name string
		xs   []float64
	}{
		{"edge", []float64{nan, 2, negNaN, inf, -inf, math.Copysign(0, -1), 0, 2.5, 3, 5, 5, nan}},
		{"roadmap", []float64{2, nan, 3}},
	} {
		t.Run(tbl.name, func(t *testing.T) {
			p := newFloatPaths(t, tbl.xs)
			for _, q := range []*query.Query{
				{View: p.view, Dims: []query.Dim{{Col: "x"}}, Measures: p.count, OrderBy: []query.Order{{Col: "x"}}},
				{View: p.view, Dims: []query.Dim{{Col: "x"}}, Measures: p.count, OrderBy: []query.Order{{Col: "x"}}, N: 3},
				{View: p.view, Dims: []query.Dim{{Col: "x"}}, Measures: p.count, OrderBy: []query.Order{{Col: "x", Desc: true}}, N: 3},
			} {
				p.check(t, q.ToTQL(), q)
			}
			p.check(t, "(topn (project (table floats) (x x)) 6 (asc x))", nil)
			p.check(t, "(order (project (table floats) (x x)) (desc x))", nil)
			for _, fc := range cases {
				p.checkCase(t, fc)
			}
		})
	}
}

// floatPaths is one float table, an engine over it at the default options
// and one at a forced DOP 3, and the stored result cache.Derive answers
// from: grouped on (k, x), with the row count and x's count, MIN and MAX.
type floatPaths struct {
	xs    []float64
	e, p3 *engine.Engine
	view  query.View
	count []query.Measure
	s     *query.Query
	sres  *exec.Result
}

// newFloatPaths stores xs, with a null after every third value, as the
// float column x of table floats, beside a grouping column k.
func newFloatPaths(t *testing.T, xs []float64) *floatPaths {
	t.Helper()
	var x, k []storage.Value
	for i, f := range xs {
		x, k = append(x, storage.FloatValue(f)), append(k, storage.IntValue(int64(i%2)))
		if i%3 == 2 {
			x, k = append(x, storage.NullValue(storage.TFloat)), append(k, storage.IntValue(int64(i%2)))
		}
	}
	xc, err := storage.BuildColumn("x", storage.TFloat, storage.CollBinary, x, storage.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kc, err := storage.BuildColumn("k", storage.TInt, storage.CollBinary, k, storage.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := storage.NewTable("Extract", "floats", []*storage.Column{xc, kc})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase("floats")
	if err := db.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	p := &floatPaths{xs: xs, e: engine.New(db), p3: engine.New(db), view: query.View{Table: "floats"}}
	o := opt.DefaultOptions()
	o.GrainWork, o.MaxDOP = 1, 3
	p.p3.SetOptions(o)
	p.count = []query.Measure{{Fn: query.Count, As: "n"}}
	p.s = &query.Query{View: p.view, Dims: []query.Dim{{Col: "k"}, {Col: "x"}},
		Measures: []query.Measure{{Fn: query.Count, As: "n"}, {Fn: query.Count, Col: "x", As: "nx"},
			{Fn: query.Min, Col: "x", As: "lo"}, {Fn: query.Max, Col: "x", As: "hi"}}}
	p.sres = p.run(t, p.e.QueryReference, p.s.ToTQL())
	return p
}

func (p *floatPaths) run(t *testing.T, fn func(context.Context, string) (*exec.Result, error), q string) *exec.Result {
	t.Helper()
	res, err := fn(context.Background(), q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return res
}

// checkCase runs the case's predicate under a row count with MIN and MAX,
// and under a GROUP BY x, and checks the count, MIN and MAX against keep.
func (p *floatPaths) checkCase(t *testing.T, fc floatCase) {
	t.Helper()
	agg := &query.Query{View: p.view, Measures: p.s.Measures[1:]}
	grouped := &query.Query{View: p.view, Dims: []query.Dim{{Col: "x"}}, Measures: p.count}
	var kept []float64
	for _, x := range p.xs {
		if fc.keep(x) {
			kept = append(kept, x)
		}
	}
	for _, q := range []*query.Query{agg, grouped} {
		if fc.f.Col != "" {
			q.Filters = []query.Filter{fc.f}
		}
		src, derived := q.ToTQL(), q
		if fc.tql != "" {
			src, derived = strings.Replace(src, "(table floats)", "(select (table floats) "+fc.tql+")", 1), nil
		}
		res := p.check(t, src, derived)
		if q != agg {
			continue
		}
		n, lo, hi := res.Value(0, 0), res.Value(0, 1), res.Value(0, 2)
		if n.I != int64(len(kept)) || lo.Null != (len(kept) == 0) || hi.Null != (len(kept) == 0) ||
			len(kept) > 0 && (cmp.Compare(lo.F, slices.MinFunc(kept, cmp.Compare)) != 0 ||
				cmp.Compare(hi.F, slices.MaxFunc(kept, cmp.Compare)) != 0) {
			t.Errorf("%s: count, min, max of x = %v, %v, %v; cmp.Compare keeps %v", q.ToTQL(), n, lo, hi, kept)
		}
	}
}

// check runs src through QueryReference, Query, QuerySerial and a forced
// DOP 3 and, when q is not nil, derives q from the stored result. Every
// answer must equal the reference's, row for row in order where src
// orders; check returns the reference's.
func (p *floatPaths) check(t *testing.T, src string, q *query.Query) *exec.Result {
	t.Helper()
	ordered := strings.Contains(src, "(asc") || strings.Contains(src, "(desc")
	ref := p.run(t, p.e.QueryReference, src)
	want := renderFloats(ref, ordered)
	got := map[string]*exec.Result{
		"Query":       p.run(t, p.e.Query, src),
		"QuerySerial": p.run(t, p.e.QuerySerial, src),
		"DOP 3":       p.run(t, p.p3.Query, src),
	}
	if q != nil {
		res, ok := cache.Derive(p.s, p.sres, q)
		if !ok {
			t.Fatalf("Derive refused %s", src)
		}
		got["Derive"] = res
	}
	for path, res := range got {
		if g := renderFloats(res, ordered); g != want {
			t.Errorf("%s:\n%s\n got  %s\n want %s", path, src, g, want)
		}
	}
	return ref
}

// renderFloats prints res's rows, order-free unless ordered, with -0 as 0
// and every NaN as NaN.
func renderFloats(res *exec.Result, ordered bool) string {
	if !ordered {
		return render(res)
	}
	rows := make([]string, res.N)
	for i := range rows {
		var parts []string
		for c := range res.Cols {
			v := res.Value(i, c)
			if v.Type == storage.TFloat && !v.Null {
				v.F += 0
			}
			parts = append(parts, v.String())
		}
		rows[i] = strings.Join(parts, "|")
	}
	return strings.Join(rows, "; ")
}
