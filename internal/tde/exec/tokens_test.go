package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// strTable builds a one-string-column table "s" (plus an int column "x"
// holding the row number) with the given collation, dictionary-compressed
// unless plain.
func strTable(t testing.TB, name string, coll storage.Collation, plain bool, vals []storage.Value) *storage.Table {
	t.Helper()
	s, err := storage.BuildColumn("s", storage.TStr, coll, vals, storage.BuildOptions{NoDictionary: plain})
	if err != nil {
		t.Fatal(err)
	}
	if (s.Dict == nil) != plain {
		t.Fatalf("table %s: dictionary = %v, want plain = %v", name, s.Dict != nil, plain)
	}
	xs := make([]storage.Value, len(vals))
	for i := range xs {
		xs[i] = storage.IntValue(int64(i))
	}
	x, err := storage.BuildColumn("x", storage.TInt, storage.CollBinary, xs, storage.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := storage.NewTable("Extract", name, []*storage.Column{s, x})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// repeat cycles vals out to n values.
func repeat(n int, vals ...storage.Value) []storage.Value {
	out := make([]storage.Value, n)
	for i := range out {
		out[i] = vals[i%len(vals)]
	}
	return out
}

// groupCounts renders a (key, count) result as "key=count" lines, sorted.
func groupCounts(t *testing.T, res *Result) string {
	t.Helper()
	var rows []string
	for i := 0; i < res.N; i++ {
		rows = append(rows, fmt.Sprintf("%s=%d", strings.ToLower(res.Value(i, 0).String()), res.Value(i, 1).I))
	}
	sort.Strings(rows)
	return strings.Join(rows, " ")
}

func countBy(child plan.Node, streaming bool) *plan.Aggregate {
	return &plan.Aggregate{Child: child, GroupBy: []int{0}, Streaming: streaming,
		Aggs: []plan.AggSpec{{Fn: plan.AggCount, ArgIdx: -1, Name: "n"}}}
}

// TestGroupTokensWithNulls: null tokens form their own group, on the hash
// and the streaming aggregate, with and without a dictionary.
func TestGroupTokensWithNulls(t *testing.T) {
	null := storage.NullValue(storage.TStr)
	vals := []storage.Value{null, null, storage.StrValue("a"), storage.StrValue("a"), storage.StrValue("b"), null}
	sorted := []storage.Value{null, null, null, storage.StrValue("a"), storage.StrValue("a"), storage.StrValue("b")}
	const want = "a=2 b=1 null=3"
	for _, plain := range []bool{false, true} {
		for _, streaming := range []bool{false, true} {
			in := vals
			if streaming {
				in = sorted
			}
			res, err := Run(context.Background(), countBy(scanAll(strTable(t, "t", storage.CollBinary, plain, in)), streaming))
			if err != nil {
				t.Fatal(err)
			}
			if got := groupCounts(t, res); got != want {
				t.Errorf("plain=%v streaming=%v: %s, want %s", plain, streaming, got, want)
			}
		}
	}
}

// TestCIGroupOverBinaryDictionary: a CI group key over a binary-collated
// dictionary, where "ab", "AB" and "Ab" are three tokens that fold to one
// group. The slot table caches each token separately; the groups map must
// still merge them.
func TestCIGroupOverBinaryDictionary(t *testing.T) {
	tbl := strTable(t, "t", storage.CollBinary, false, sortedBinary("AB", "AB", "Ab", "ab", "ab", "ab", "b"))
	ci := []plan.ColInfo{{Name: "s", Type: storage.TStr, Coll: storage.CollCI}, {Name: "x", Type: storage.TInt}}
	for _, streaming := range []bool{false, true} {
		common := aggCommon{node: countBy(scanAll(tbl), streaming), schema: ci}
		var op Operator = &hashAggOp{aggCommon: common, child: newScanOp(context.Background(), scanAll(tbl))}
		if streaming {
			op = &streamAggOp{aggCommon: common, child: newScanOp(context.Background(), scanAll(tbl))}
		}
		res, err := Collect(op, common.node.Schema())
		op.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := groupCounts(t, res), "ab=6 b=1"; got != want {
			t.Errorf("streaming=%v: %s, want %s", streaming, got, want)
		}
	}
}

func sortedBinary(xs ...string) []storage.Value {
	sort.Strings(xs)
	return sv(xs...)
}

// TestAggregateMixesTokenAndDecodedBatches: one aggregate fed batches over
// two different dictionaries, plain strings, and a sharedOp's decoded
// result lands every equal key in one group.
func TestAggregateMixesTokenAndDecodedBatches(t *testing.T) {
	a := strTable(t, "a", storage.CollCI, false, repeat(3000, sv("WN", "AA", "dl")...))
	b := strTable(t, "b", storage.CollCI, false, repeat(2000, sv("aa", "DL", "ua")...))
	c := strTable(t, "c", storage.CollCI, true, repeat(100, sv("wn", "Ua", "x", "y")...))
	shared := &plan.Shared{Child: scanAll(strTable(t, "d", storage.CollCI, false, repeat(1500, sv("Dl", "x")...)))}
	exch := &plan.Exchange{Inputs: []plan.Node{scanAll(a), scanAll(b), scanAll(c), shared}}
	res, err := Run(context.Background(), countBy(exch, false))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := groupCounts(t, res), "aa=1667 dl=2417 ua=691 wn=1025 x=775 y=25"; got != want {
		t.Errorf("%s, want %s", got, want)
	}
}

// TestJoinProbeMemoAcrossDictionaries: the probe side's per-token match
// lists agree with the plain-string probe when the two sides use different
// dictionaries, the probe's batches switch between two dictionaries, the
// probe carries nulls, and a CI key over a binary probe dictionary folds
// two tokens onto one build row.
func TestJoinProbeMemoAcrossDictionaries(t *testing.T) {
	null := storage.NullValue(storage.TStr)
	probe := repeat(5000, storage.StrValue("wn"), storage.StrValue("WN"), null, storage.StrValue("AA"), storage.StrValue("zz"))
	probe2 := repeat(3000, storage.StrValue("UA"), storage.StrValue("aa"), storage.StrValue("wn"), storage.StrValue("zz"))
	build := strTable(t, "r", storage.CollCI, false, sv("AA", "Wn", "UA"))
	for _, kind := range []plan.JoinKind{plan.JoinInner, plan.JoinLeft} {
		var got []string
		for _, plain := range []bool{false, true} {
			left := &plan.Exchange{Inputs: []plan.Node{
				scanAll(strTable(t, "l", storage.CollBinary, plain, probe)),
				scanAll(strTable(t, "l2", storage.CollBinary, plain, probe2)),
			}}
			j := &plan.Join{Left: left, Right: scanAll(build), Kind: kind, LKeys: []int{0}, RKeys: []int{0}}
			agg := &plan.Aggregate{Child: j, GroupBy: []int{0, 2},
				Aggs: []plan.AggSpec{{Fn: plan.AggCount, ArgIdx: -1, Name: "n"}}}
			res, err := Run(context.Background(), agg)
			if err != nil {
				t.Fatal(err)
			}
			var rows []string
			for i := 0; i < res.N; i++ {
				rows = append(rows, fmt.Sprint(res.Row(i)))
			}
			sort.Strings(rows)
			got = append(got, strings.Join(rows, " "))
		}
		if got[0] != got[1] {
			t.Errorf("kind %v: token probe %s\nplain probe %s", kind, got[0], got[1])
		}
		want := "[AA AA 1000] [UA UA 750] [WN Wn 1000] [aa AA 750] [wn Wn 1750]"
		if kind == plan.JoinLeft {
			want = "[AA AA 1000] [UA UA 750] [WN Wn 1000] [aa AA 750] [null null 1000] [wn Wn 1750] [zz null 1750]"
		}
		if got[0] != want {
			t.Errorf("kind %v: %s, want %s", kind, got[0], want)
		}
	}
}

// TestGroupByTokensAllocsPerBatch: grouping 10^5 rows on a dictionary
// column allocates per batch and per group, never per row.
func TestGroupByTokensAllocsPerBatch(t *testing.T) {
	const rows = 100_000
	var vals []storage.Value
	for i := 0; i < 50; i++ {
		vals = append(vals, storage.StrValue(fmt.Sprintf("Key%02d", i)))
	}
	tbl := strTable(t, "t", storage.CollCI, false, repeat(rows, vals...))
	agg := &plan.Aggregate{Child: scanAll(tbl), GroupBy: []int{0}, Aggs: []plan.AggSpec{
		{Fn: plan.AggCount, ArgIdx: -1, Name: "n"},
		{Fn: plan.AggSum, ArgIdx: 1, Name: "sx"},
	}}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(context.Background(), agg); err != nil {
			t.Fatal(err)
		}
	})
	batches := rows / storage.BatchSize
	if limit := float64(8*batches + 8*len(vals)); allocs > limit {
		t.Errorf("%.0f allocs for %d rows in %d batches and %d groups, want <= %.0f", allocs, rows, batches, len(vals), limit)
	}
}

// TestCountDistinctAllocsPerDistinct: countd over 10^5 rows with 20
// distinct values allocates per distinct value and per batch, not per row.
func TestCountDistinctAllocsPerDistinct(t *testing.T) {
	const rows = 100_000
	var vals []storage.Value
	for i := 0; i < 20; i++ {
		vals = append(vals, storage.StrValue(fmt.Sprintf("V%02d", i)))
	}
	tbl := strTable(t, "t", storage.CollCI, false, repeat(rows, vals...))
	agg := &plan.Aggregate{Child: scanAll(tbl), Aggs: []plan.AggSpec{{Fn: plan.AggCountD, ArgIdx: 0, Name: "d"}}}
	var res *Result
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if res, err = Run(context.Background(), agg); err != nil {
			t.Fatal(err)
		}
	})
	if res.Value(0, 0).I != int64(len(vals)) {
		t.Fatalf("countd = %v, want %d", res.Value(0, 0), len(vals))
	}
	batches := rows / storage.BatchSize
	if limit := float64(8*batches + 8*len(vals)); allocs > limit {
		t.Errorf("%.0f allocs for %d rows with %d distinct values, want <= %.0f", allocs, rows, len(vals), limit)
	}
}
