package exec

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// ---- oracle: the row-at-a-time aggregate the columnar one replaced ----

// accum is the running state of one aggregate within one group.
type accum struct {
	count int64
	sumI  int64
	sumF  float64
	min   storage.Value
	max   storage.Value
	set   map[string]struct{} // countd only
}

// add folds v into the accumulator; count(*) passes a non-null TNull
// marker.
func (a *accum) add(fn plan.AggFn, v storage.Value, coll storage.Collation) {
	if fn == plan.AggCount && v.Type == storage.TNull && !v.Null {
		a.count++
		return
	}
	if v.Null {
		return
	}
	switch fn {
	case plan.AggCount:
		a.count++
	case plan.AggSum, plan.AggAvg:
		a.count++
		if v.Type == storage.TFloat {
			a.sumF += v.F
		} else {
			a.sumI += v.I
			a.sumF += float64(v.I)
		}
	case plan.AggMin:
		if a.count == 0 || storage.Compare(v, a.min, coll) < 0 {
			a.min = v
		}
		a.count++
	case plan.AggMax:
		if a.count == 0 || storage.Compare(v, a.max, coll) > 0 {
			a.max = v
		}
		a.count++
	case plan.AggCountD:
		if a.set == nil {
			a.set = make(map[string]struct{})
		}
		a.set[string(storage.AppendKey(nil, v, coll))] = struct{}{}
	}
}

func (a *accum) result(fn plan.AggFn, inType storage.Type) storage.Value {
	switch fn {
	case plan.AggCount:
		return storage.IntValue(a.count)
	case plan.AggCountD:
		return storage.IntValue(int64(len(a.set)))
	case plan.AggSum:
		if a.count == 0 {
			return storage.NullValue(fn.ResultType(inType))
		}
		if inType == storage.TFloat {
			return storage.FloatValue(a.sumF)
		}
		return storage.IntValue(a.sumI)
	case plan.AggAvg:
		if a.count == 0 {
			return storage.NullValue(storage.TFloat)
		}
		return storage.FloatValue(a.sumF / float64(a.count))
	case plan.AggMin:
		if a.count == 0 {
			return storage.NullValue(inType)
		}
		return a.min
	default: // AggMax
		if a.count == 0 {
			return storage.NullValue(inType)
		}
		return a.max
	}
}

// oracleAggregate groups the rows of bs one at a time into groups of
// boxed values, in first-seen order.
func oracleAggregate(node *plan.Aggregate, schema []plan.ColInfo, bs []*storage.Batch) *Result {
	type group struct {
		keys   []storage.Value
		accums []accum
	}
	groups := map[string]*group{}
	var order []*group
	for _, b := range bs {
		for i := 0; i < b.N; i++ {
			var key []byte
			for _, gi := range node.GroupBy {
				key = storage.AppendKey(key, b.Cols[gi].Value(i), schema[gi].Coll)
			}
			g := groups[string(key)]
			if g == nil {
				g = &group{accums: make([]accum, len(node.Aggs))}
				for _, gi := range node.GroupBy {
					g.keys = append(g.keys, b.Cols[gi].Value(i))
				}
				groups[string(key)] = g
				order = append(order, g)
			}
			for j, spec := range node.Aggs {
				if spec.ArgIdx < 0 {
					g.accums[j].add(spec.Fn, storage.Value{Type: storage.TNull}, storage.CollBinary)
				} else {
					g.accums[j].add(spec.Fn, b.Cols[spec.ArgIdx].Value(i), schema[spec.ArgIdx].Coll)
				}
			}
		}
	}
	if len(order) == 0 && len(node.GroupBy) == 0 {
		order = append(order, &group{accums: make([]accum, len(node.Aggs))})
	}
	out := NewResult((&plan.Aggregate{Child: schemaNode(schema), GroupBy: node.GroupBy, Aggs: node.Aggs}).Schema())
	for _, g := range order {
		row := append([]storage.Value(nil), g.keys...)
		for j, spec := range node.Aggs {
			in := storage.TInt
			if spec.ArgIdx >= 0 {
				in = schema[spec.ArgIdx].Type
			}
			row = append(row, g.accums[j].result(spec.Fn, in))
		}
		out.AppendRow(row)
	}
	return out
}

// ---- random input ----

// batchesOp replays prepared batches.
type batchesOp struct {
	bs []*storage.Batch
	i  int
}

func (o *batchesOp) Next() (*storage.Batch, error) {
	if o.i == len(o.bs) {
		return nil, nil
	}
	o.i++
	return o.bs[o.i-1], nil
}

func (o *batchesOp) Close() {}

// aggSchema is the input of the differential test: a CI string column that
// arrives over two dictionaries or plain, an int, a date, a float with ±0,
// and a plain CI string.
var aggSchema = []plan.ColInfo{
	{Name: "s", Type: storage.TStr, Coll: storage.CollCI},
	{Name: "k", Type: storage.TInt},
	{Name: "d", Type: storage.TDate},
	{Name: "f", Type: storage.TFloat},
	{Name: "t", Type: storage.TStr, Coll: storage.CollCI},
}

var (
	aggWords = []string{"a", "A", "b", "B", "ab", "Ab", "aB", "c", ""}
	// Two binary dictionaries over the same words number them differently,
	// and fold several tokens onto one CI group.
	aggDictA = storage.NewDictionary(aggWords, storage.CollBinary)
	aggDictB = storage.NewDictionary(append([]string{"0", "Zz"}, aggWords...), storage.CollBinary)
)

// randRows draws n rows of aggSchema; keys spans the int and date keys.
func randRows(rng *rand.Rand, n, keys int) [][]storage.Value {
	null := func(t storage.Type) (storage.Value, bool) { return storage.NullValue(t), rng.Intn(8) == 0 }
	rows := make([][]storage.Value, n)
	for r := range rows {
		row := make([]storage.Value, len(aggSchema))
		for c, col := range aggSchema {
			if v, ok := null(col.Type); ok {
				row[c] = v
				continue
			}
			switch c {
			case 0, 4:
				row[c] = storage.StrValue(aggWords[rng.Intn(len(aggWords))])
			case 1:
				// Large magnitudes: a sum kept as float64 loses their low bits.
				row[c] = storage.IntValue(int64(rng.Intn(keys)-keys/2)<<52 + int64(rng.Intn(3)))
			case 2:
				row[c] = storage.Value{Type: storage.TDate, I: int64(rng.Intn(keys) - keys/2)}
			case 3:
				row[c] = storage.FloatValue([]float64{0, math.Copysign(0, -1), 1.5, -2.25, float64(rng.Intn(5))}[rng.Intn(5)])
			}
		}
		rows[r] = row
	}
	return rows
}

// toBatches cuts rows into batches of random size, empty ones included.
// Each batch carries column s over one of the two dictionaries or plain.
func toBatches(rng *rand.Rand, rows [][]storage.Value) []*storage.Batch {
	var bs []*storage.Batch
	for len(rows) > 0 || len(bs) == 0 {
		n := min(len(rows), rng.Intn(300))
		chunk := rows[:n]
		rows = rows[n:]
		cols := make([]*storage.Vector, len(aggSchema))
		for c, col := range aggSchema {
			v := storage.NewVector(col.Type, n)
			for i, row := range chunk {
				v.Set(i, row[c])
			}
			cols[c] = v
		}
		if dict := []*storage.Dictionary{aggDictA, aggDictB, nil}[rng.Intn(3)]; dict != nil {
			v := cols[0]
			tokens := &storage.Vector{Type: storage.TStr, I: make([]int64, n), Null: v.Null, Dict: dict}
			for i, s := range v.S {
				if !v.IsNull(i) {
					tok, _ := dict.Lookup(s)
					tokens.I[i] = int64(tok)
				}
			}
			cols[0] = tokens
		}
		bs = append(bs, storage.NewBatch(cols))
	}
	return bs
}

// everyAgg applies every aggregate function to every column it accepts.
func everyAgg() []plan.AggSpec {
	aggs := []plan.AggSpec{{Fn: plan.AggCount, ArgIdx: -1, Name: "n"}}
	for c, col := range aggSchema {
		for _, fn := range []plan.AggFn{plan.AggCount, plan.AggSum, plan.AggAvg, plan.AggMin, plan.AggMax, plan.AggCountD} {
			if (fn == plan.AggSum || fn == plan.AggAvg) && !col.Type.Numeric() {
				continue
			}
			aggs = append(aggs, plan.AggSpec{Fn: fn, ArgIdx: c, Name: fmt.Sprintf("%s_%s", fn, col.Name)})
		}
	}
	return aggs
}

// sameValue is exact equality: type, nullness and payload bits.
func sameValue(a, b storage.Value) bool {
	return a.Type == b.Type && a.Null == b.Null && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func diffResults(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s: %d groups, oracle %d", what, got.N, want.N)
	}
	for i := 0; i < want.N; i++ {
		for c := range want.Cols {
			if g, w := got.Value(i, c), want.Value(i, c); !sameValue(g, w) {
				t.Fatalf("%s: group %d %v: column %s = %#v, oracle %#v", what, i, want.Row(i), want.Schema[c].Name, g, w)
			}
		}
	}
}

// TestAggregateMatchesRowOracle: the hash and streaming aggregates agree,
// cell for cell and in group order, with the row-at-a-time aggregate over
// seeded random batches: dictionary, plain and mixed string keys, nulls,
// CI strings, ±0 floats, int and date keys, every aggregate function, empty
// input, and more than BatchSize groups for streaming.
func TestAggregateMatchesRowOracle(t *testing.T) {
	keySets := [][]int{{}, {0}, {1}, {2}, {3}, {0, 1}, {4, 2}, {0, 4}}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, rows := range []int{0, 7, 3000} {
			keys := []int{3, 4000}[rng.Intn(2)]
			if rows == 3000 && seed == 1 {
				keys = 4000 // > BatchSize groups on every int/date key
			}
			data := randRows(rng, rows, keys)
			for _, gb := range keySets {
				node := &plan.Aggregate{GroupBy: gb, Aggs: everyAgg()}
				what := fmt.Sprintf("seed %d, %d rows over %d keys, groupby %v", seed, rows, keys, gb)

				in := toBatches(rng, data)
				want := oracleAggregate(node, aggSchema, in)
				diffResults(t, what+", hash", runAgg(t, node, in, false), want)

				sorted := append([][]storage.Value(nil), data...)
				key := func(row []storage.Value) string {
					var buf []byte
					for _, gi := range gb {
						buf = storage.AppendKey(buf, row[gi], aggSchema[gi].Coll)
					}
					return string(buf)
				}
				sort.SliceStable(sorted, func(i, j int) bool { return key(sorted[i]) < key(sorted[j]) })
				in = toBatches(rng, sorted)
				want = oracleAggregate(node, aggSchema, in)
				diffResults(t, what+", streaming", runAgg(t, node, in, true), want)
				if seed == 1 && rows == 3000 && len(gb) == 1 && gb[0] == 1 && want.N <= storage.BatchSize {
					t.Fatalf("%s: only %d groups, want more than BatchSize", what, want.N)
				}
			}
		}
	}
}

func runAgg(t *testing.T, node *plan.Aggregate, in []*storage.Batch, streaming bool) *Result {
	t.Helper()
	common := aggCommon{node: node, schema: aggSchema}
	var op Operator = &hashAggOp{aggCommon: common, child: &batchesOp{bs: in}}
	if streaming {
		op = &streamAggOp{aggCommon: common, child: &batchesOp{bs: in}}
	}
	defer op.Close()
	res, err := Collect(op, (&plan.Aggregate{Child: schemaNode(aggSchema), GroupBy: node.GroupBy, Aggs: node.Aggs}).Schema())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHashAggregateAllocsPerGroup: hash-aggregating 20 000 plain-string
// rows into 10 000 groups allocates fewer than two objects per group. The
// group state lives in typed columns, so a new group costs its map key and
// a share of the columns' growth.
func TestHashAggregateAllocsPerGroup(t *testing.T) {
	const rows, groups = 20_000, 10_000
	schema := []plan.ColInfo{{Name: "s", Type: storage.TStr}, {Name: "x", Type: storage.TInt}, {Name: "f", Type: storage.TFloat}}
	var in []*storage.Batch
	for lo := 0; lo < rows; lo += storage.BatchSize {
		n := min(storage.BatchSize, rows-lo)
		s, x, f := storage.NewVector(storage.TStr, n), storage.NewVector(storage.TInt, n), storage.NewVector(storage.TFloat, n)
		for i := 0; i < n; i++ {
			s.S[i] = fmt.Sprintf("key%05d", (lo+i)%groups)
			x.I[i] = int64(lo + i)
			f.F[i] = float64(lo+i) / 4
		}
		in = append(in, storage.NewBatch([]*storage.Vector{s, x, f}))
	}
	node := &plan.Aggregate{GroupBy: []int{0}, Aggs: []plan.AggSpec{
		{Fn: plan.AggCount, ArgIdx: -1, Name: "n"},
		{Fn: plan.AggSum, ArgIdx: 1, Name: "sx"},
		{Fn: plan.AggAvg, ArgIdx: 2, Name: "af"},
		{Fn: plan.AggMax, ArgIdx: 1, Name: "mx"},
	}}
	op := &hashAggOp{aggCommon: aggCommon{node: node, schema: schema}, child: &batchesOp{bs: in}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Collect(op, (&plan.Aggregate{Child: schemaNode(schema), GroupBy: node.GroupBy, Aggs: node.Aggs}).Schema())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != groups {
		t.Fatalf("%d groups, want %d", res.N, groups)
	}
	if perGroup := float64(after.Mallocs-before.Mallocs) / groups; perGroup >= 2 {
		t.Errorf("%.2f mallocs per group, want < 2", perGroup)
	}
}
