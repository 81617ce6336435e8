package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"vizq/internal/tde/exec"
	"vizq/internal/tde/opt"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

var testEngine *Engine

func getEngine(t testing.TB) *Engine {
	if testEngine == nil {
		db, err := workload.BuildFlightsDB(workload.DefaultFlightsConfig())
		if err != nil {
			t.Fatal(err)
		}
		testEngine = New(db)
	}
	return testEngine
}

func ctx() context.Context { return context.Background() }

// rowsAsStrings renders result rows into sortable strings for order-free
// comparison.
func rowsAsStrings(r *exec.Result) []string {
	out := make([]string, r.N)
	for i := 0; i < r.N; i++ {
		parts := make([]string, len(r.Cols))
		for c := range r.Cols {
			v := r.Value(i, c)
			if v.Type == storage.TFloat && !v.Null {
				parts[c] = fmt.Sprintf("%.6f", v.F)
			} else {
				parts[c] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, a, b *exec.Result) {
	t.Helper()
	ra, rb := rowsAsStrings(a), rowsAsStrings(b)
	if len(ra) != len(rb) {
		t.Fatalf("row counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("row %d differs:\n  %s\n  %s", i, ra[i], rb[i])
		}
	}
}

func TestCountStar(t *testing.T) {
	e := getEngine(t)
	res, err := e.Query(ctx(), `(aggregate (table flights) (groupby) (aggs (n count *)))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 1 {
		t.Fatalf("N = %d", res.N)
	}
	want := int64(workload.DefaultFlightsConfig().Rows)
	if got := res.Value(0, 0).I; got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
}

func TestGroupByCarrier(t *testing.T) {
	e := getEngine(t)
	res, err := e.Query(ctx(), `
		(aggregate (table flights)
			(groupby carrier)
			(aggs (n count *) (total sum distance) (avgdelay avg delay)))`)
	if err != nil {
		t.Fatal(err)
	}

	// Independent reference computation over the raw table.
	tbl, _ := e.Database().Table("Extract", "flights")
	carrier := tbl.Column("carrier")
	delay := tbl.Column("delay")
	dist := tbl.Column("distance")
	type agg struct {
		n, sumD  int64
		sumDelay float64
		nDelay   int64
	}
	ref := map[string]*agg{}
	for i := 0; i < int(tbl.Rows); i++ {
		key := carrier.Value(i).S
		a := ref[key]
		if a == nil {
			a = &agg{}
			ref[key] = a
		}
		a.n++
		a.sumD += dist.Value(i).I
		if dv := delay.Value(i); !dv.Null {
			a.sumDelay += dv.F
			a.nDelay++
		}
	}
	if res.N != len(ref) {
		t.Fatalf("groups = %d, want %d", res.N, len(ref))
	}
	for i := 0; i < res.N; i++ {
		key := res.Value(i, 0).S
		a := ref[key]
		if a == nil {
			t.Fatalf("unexpected group %q", key)
		}
		if res.Value(i, 1).I != a.n {
			t.Errorf("%s count = %d, want %d", key, res.Value(i, 1).I, a.n)
		}
		if res.Value(i, 2).I != a.sumD {
			t.Errorf("%s sum = %d, want %d", key, res.Value(i, 2).I, a.sumD)
		}
		wantAvg := a.sumDelay / float64(a.nDelay)
		if math.Abs(res.Value(i, 3).F-wantAvg) > 1e-9 {
			t.Errorf("%s avg = %v, want %v", key, res.Value(i, 3).F, wantAvg)
		}
	}
}

func TestFilterProjectOrder(t *testing.T) {
	e := getEngine(t)
	res, err := e.Query(ctx(), `
		(order
			(aggregate
				(select (table flights) (and (= carrier "WN") (> distance 1000)))
				(groupby market)
				(aggs (n count *)))
			(desc n) (asc market))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 {
		t.Fatal("no rows")
	}
	// Verify ordering.
	for i := 1; i < res.N; i++ {
		prev, cur := res.Value(i-1, 1).I, res.Value(i, 1).I
		if cur > prev {
			t.Fatalf("not sorted desc at %d: %d > %d", i, cur, prev)
		}
		if cur == prev && res.Value(i-1, 0).S > res.Value(i, 0).S {
			t.Fatalf("tie not sorted asc by market at %d", i)
		}
	}
}

func TestTopN(t *testing.T) {
	e := getEngine(t)
	full, err := e.Query(ctx(), `
		(order
			(aggregate (table flights) (groupby carrier) (aggs (n count *)))
			(desc n) (asc carrier))`)
	if err != nil {
		t.Fatal(err)
	}
	top, err := e.Query(ctx(), `
		(topn
			(aggregate (table flights) (groupby carrier) (aggs (n count *)))
			3 (desc n) (asc carrier))`)
	if err != nil {
		t.Fatal(err)
	}
	if top.N != 3 {
		t.Fatalf("topn returned %d rows", top.N)
	}
	for i := 0; i < 3; i++ {
		if top.Value(i, 0).S != full.Value(i, 0).S {
			t.Errorf("top %d = %s, want %s", i, top.Value(i, 0).S, full.Value(i, 0).S)
		}
	}
}

func TestJoinDimension(t *testing.T) {
	e := getEngine(t)
	res, err := e.Query(ctx(), `
		(aggregate
			(join (table flights) (table carriers) (on (= flights.carrier carriers.carrier)))
			(groupby airline_name)
			(aggs (n count *)))`)
	if err != nil {
		t.Fatal(err)
	}
	byCode, err := e.Query(ctx(), `
		(aggregate (table flights) (groupby carrier) (aggs (n count *)))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != byCode.N {
		t.Fatalf("join groups = %d, code groups = %d", res.N, byCode.N)
	}
	var joinTotal, codeTotal int64
	for i := 0; i < res.N; i++ {
		joinTotal += res.Value(i, 1).I
	}
	for i := 0; i < byCode.N; i++ {
		codeTotal += byCode.Value(i, 1).I
	}
	if joinTotal != codeTotal {
		t.Errorf("join total %d != %d", joinTotal, codeTotal)
	}
}

func TestLeftJoinKeepsUnmatched(t *testing.T) {
	e := getEngine(t)
	// carriers dimension joined against a filtered fact slice that can miss
	// some carriers entirely.
	res, err := e.Query(ctx(), `
		(aggregate
			(join (table carriers)
				(aggregate (select (table flights) (= market "HNL-OGG"))
					(groupby carrier) (aggs (flights count *)))
				(on (= carriers.carrier carrier)) left)
			(groupby airline_name)
			(aggs (total sum flights)))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != workload.DefaultFlightsConfig().Carriers {
		t.Fatalf("left join lost rows: %d", res.N)
	}
	nulls := 0
	for i := 0; i < res.N; i++ {
		if res.Value(i, 1).Null {
			nulls++
		}
	}
	if nulls == 0 {
		t.Log("warning: every carrier flies HNL-OGG in this seed; test weakened")
	}
}

func TestDistinct(t *testing.T) {
	e := getEngine(t)
	res, err := e.Query(ctx(), `(distinct (project (table flights) (carrier carrier)))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != workload.DefaultFlightsConfig().Carriers {
		t.Errorf("distinct carriers = %d", res.N)
	}
}

func TestScalarFunctions(t *testing.T) {
	e := getEngine(t)
	res, err := e.Query(ctx(), `
		(distinct (project (select (table flights) (= carrier "wn"))
			(c (upper carrier))
			(m (month date))
			(half (/ distance 2))))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N == 0 {
		t.Fatal("case-insensitive carrier filter returned nothing")
	}
	for i := 0; i < res.N; i++ {
		if res.Value(i, 0).S != "WN" {
			t.Errorf("upper(carrier) = %q", res.Value(i, 0).S)
		}
		m := res.Value(i, 1).I
		if m < 1 || m > 12 {
			t.Errorf("month = %d", m)
		}
	}
}

func TestInList(t *testing.T) {
	e := getEngine(t)
	res, err := e.Query(ctx(), `
		(aggregate (select (table flights) (in carrier ["WN" "AA" "DL"]))
			(groupby carrier) (aggs (n count *)))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3 {
		t.Fatalf("in-list groups = %d, want 3", res.N)
	}
}

func TestDateLiteralFilter(t *testing.T) {
	e := getEngine(t)
	res, err := e.Query(ctx(), `
		(aggregate (select (table flights) (< date (date "2015-02-01")))
			(groupby) (aggs (n count *)))`)
	if err != nil {
		t.Fatal(err)
	}
	n := res.Value(0, 0).I
	if n <= 0 || n >= int64(workload.DefaultFlightsConfig().Rows) {
		t.Errorf("january flights = %d", n)
	}
}

func TestCountDistinct(t *testing.T) {
	e := getEngine(t)
	res, err := e.Query(ctx(), `
		(aggregate (table flights) (groupby) (aggs (d countd carrier)))`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value(0, 0).I; got != int64(workload.DefaultFlightsConfig().Carriers) {
		t.Errorf("countd = %d", got)
	}
}

// TestParallelMatchesSerial is the core execution invariant: every parallel
// plan must produce exactly the rows of the serial plan.
func TestParallelMatchesSerial(t *testing.T) {
	e := getEngine(t)
	queries := []string{
		`(aggregate (table flights) (groupby carrier) (aggs (n count *) (s sum distance) (a avg delay) (mn min delay) (mx max delay)))`,
		`(aggregate (select (table flights) (> delay 30)) (groupby market) (aggs (n count *)))`,
		`(aggregate (table flights) (groupby date) (aggs (n count *) (a avg delay)))`,
		`(aggregate (table flights) (groupby date hour) (aggs (n count *)))`,
		`(aggregate (join (table flights) (table carriers) (on (= flights.carrier carriers.carrier))) (groupby airline_name) (aggs (n count *) (a avg delay)))`,
		`(topn (aggregate (table flights) (groupby market) (aggs (n count *))) 7 (desc n) (asc market))`,
		`(aggregate (table flights) (groupby) (aggs (n count *) (a avg delay) (d countd carrier)))`,
		`(order (aggregate (select (table flights) (in origin ["LAX" "SFO" "JFK"])) (groupby origin dest) (aggs (n count *))) (asc origin) (asc dest))`,
		`(distinct (project (table flights) (carrier carrier) (origin origin)))`,
	}
	for qi, q := range queries {
		serial, err := e.QuerySerial(ctx(), q)
		if err != nil {
			t.Fatalf("query %d serial: %v", qi, err)
		}
		par, err := e.Query(ctx(), q)
		if err != nil {
			t.Fatalf("query %d parallel: %v", qi, err)
		}
		t.Run(fmt.Sprintf("q%d", qi), func(t *testing.T) {
			sameRows(t, serial, par)
		})
	}
}

func TestMaxDOPVariants(t *testing.T) {
	e := getEngine(t)
	q := `(aggregate (table flights) (groupby carrier origin) (aggs (n count *) (a avg delay)))`
	base, err := e.QuerySerial(ctx(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, dop := range []int{2, 3, 8} {
		o := opt.DefaultOptions()
		o.MaxDOP = dop
		o.GrainWork = 1 // force maximal parallelism
		e2 := New(e.Database())
		e2.SetOptions(o)
		res, err := e2.Query(ctx(), q)
		if err != nil {
			t.Fatalf("dop %d: %v", dop, err)
		}
		sameRows(t, base, res)
	}
}

func TestRangePartitionMatches(t *testing.T) {
	e := getEngine(t)
	q := `(aggregate (table flights) (groupby date) (aggs (n count *) (d countd carrier)))`
	o := opt.DefaultOptions()
	o.GrainWork = 1
	forced := New(e.Database())
	forced.SetOptions(o)
	res, err := forced.Query(ctx(), q)
	if err != nil {
		t.Fatal(err)
	}
	base, err := e.QuerySerial(ctx(), q)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, base, res)
}

func TestTempTableRoundTrip(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 2000, Days: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e := New(db)
	res, err := e.Query(ctx(), `(distinct (project (table flights) (carrier carrier)))`)
	if err != nil {
		t.Fatal(err)
	}
	name, err := e.CreateTempTable("filtervals", res)
	if err != nil {
		t.Fatal(err)
	}
	if name != "TEMP.filtervals" {
		t.Errorf("temp name = %q", name)
	}
	joined, err := e.Query(ctx(), `
		(aggregate
			(join (table flights) (table TEMP.filtervals) (on (= flights.carrier TEMP.filtervals.carrier)))
			(groupby) (aggs (n count *)))`)
	if err != nil {
		t.Fatal(err)
	}
	if joined.Value(0, 0).I != 2000 {
		t.Errorf("temp-table join count = %d", joined.Value(0, 0).I)
	}
	if err := e.DropTempTable(name); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx(), `(table TEMP.filtervals)`); err == nil {
		t.Error("dropped temp table should not resolve")
	}
}

func TestQueryErrors(t *testing.T) {
	e := getEngine(t)
	for _, q := range []string{
		`(table nosuch)`,
		`(select (table flights) (+ 1 2))`,           // non-boolean predicate
		`(select (table flights) (= carrier 5))`,     // type mismatch
		`(aggregate (table flights) (groupby nope))`, // unknown column
		`(frobnicate (table flights))`,               // unknown operator
		`(select (table flights)`,                    // unbalanced parens
		`(topn (table flights) -1 (asc date))`,       // bad N
	} {
		if _, err := e.Query(ctx(), q); err == nil {
			t.Errorf("query %q should fail", q)
		}
	}
}

func TestEngineSaveOpen(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 500, Days: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/db.tde"
	if err := storage.SaveDatabase(db, path); err != nil {
		t.Fatal(err)
	}
	e, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(ctx(), `(aggregate (table flights) (groupby) (aggs (n count *)))`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(0, 0).I != 500 {
		t.Errorf("count after reopen = %d", res.Value(0, 0).I)
	}
}

func TestResultToTableRoundTrip(t *testing.T) {
	e := getEngine(t)
	tbl, _ := e.Database().Table("Extract", "carriers")
	res, err := e.Query(context.Background(), "(table Extract.carriers)")
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.N) != tbl.Rows {
		t.Fatalf("rows = %d, want %d", res.N, tbl.Rows)
	}
	back, err := ResultToTable("TEMP", "rt", res)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.N; i++ {
		for c := range tbl.Cols {
			a, b := tbl.Cols[c].Value(i), back.Cols[c].Value(i)
			if !storage.Equal(a, b, tbl.Cols[c].Coll) {
				t.Fatalf("row %d col %d: %v != %v", i, c, a, b)
			}
		}
	}
}

// A freshly opened database has no dictionary index yet: the first IN
// filters build it, and concurrent queries share the Dictionary. The lazy
// build used to be unsynchronized ("concurrent map read and map write");
// under -race this fails without the sync.Once in Dictionary.Lookup.
func TestConcurrentInFiltersOnFreshlyOpenedDB(t *testing.T) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 500, Days: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/db.tde"
	if err := storage.SaveDatabase(db, path); err != nil {
		t.Fatal(err)
	}
	e, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	start := make(chan struct{})
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			<-start
			res, err := e.Query(ctx(), `
				(aggregate (select (table flights) (in carrier ["WN" "AA" "DL"]))
					(groupby carrier) (aggs (n count *)))`)
			if err == nil && res.N != 3 {
				err = fmt.Errorf("in-list groups = %d, want 3", res.N)
			}
			errs <- err
		}()
	}
	close(start)
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// groupTwoRows stores two rows as a temp table and groups them serially on
// every column, returning the group sizes.
func groupTwoRows(t *testing.T, schema []plan.ColInfo, rows [2][]storage.Value) []int64 {
	t.Helper()
	e := New(storage.NewDatabase("edge"))
	res := exec.NewResult(schema)
	for _, r := range rows {
		res.AppendRow(r)
	}
	name, err := e.CreateTempTable("", res)
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]string, len(schema))
	for i, c := range schema {
		cols[i] = c.Name
	}
	out, err := e.QuerySerial(ctx(), fmt.Sprintf(`(aggregate (table %s) (groupby %s) (aggs (n count *)))`,
		name, strings.Join(cols, " ")))
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for i := 0; i < out.N; i++ {
		sizes = append(sizes, out.Value(i, len(cols)).I)
	}
	return sizes
}

// TestGroupNegativeZeroWithZero: -0.0 and +0.0 compare equal, so they are
// one group (the cache's roll-up already merges them).
func TestGroupNegativeZeroWithZero(t *testing.T) {
	sizes := groupTwoRows(t, []plan.ColInfo{{Name: "f", Type: storage.TFloat}}, [2][]storage.Value{
		{storage.FloatValue(math.Copysign(0, -1))},
		{storage.FloatValue(0)},
	})
	if len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("groups %v, want one group of 2", sizes)
	}
}

// TestGroupStringKeysDoNotRun: the key of one string column must not run
// into the next, or ("a\x03b","c") and ("a","b\x03c") become one group.
func TestGroupStringKeysDoNotRun(t *testing.T) {
	sizes := groupTwoRows(t, []plan.ColInfo{{Name: "s1", Type: storage.TStr}, {Name: "s2", Type: storage.TStr}},
		[2][]storage.Value{
			{storage.StrValue("a\x03b"), storage.StrValue("c")},
			{storage.StrValue("a"), storage.StrValue("b\x03c")},
		})
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 1 {
		t.Fatalf("groups %v, want two groups of 1", sizes)
	}
}
