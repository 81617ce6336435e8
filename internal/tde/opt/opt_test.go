package opt

import (
	"context"
	"strings"
	"testing"

	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
	"vizq/internal/tde/tql"
	"vizq/internal/workload"
)

var testDB *storage.Database

func db(t testing.TB) *storage.Database {
	if testDB == nil {
		d, err := workload.BuildFlightsDB(workload.DefaultFlightsConfig())
		if err != nil {
			t.Fatal(err)
		}
		testDB = d
	}
	return testDB
}

func compile(t testing.TB, src string) plan.Node {
	t.Helper()
	n, err := tql.Compile(src, db(t))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func forcedParallel() Options {
	o := DefaultOptions()
	o.MaxDOP = 4
	o.GrainWork = 1
	return o
}

// TestParallelPlanShapes reproduces Fig. 3: Exchange placement for flow
// operators (which inherit parallelism) vs stop-and-go operators (which
// close the region).
func TestParallelPlanShapes(t *testing.T) {
	// Flow-only pipeline: select+project parallelize per fraction; a single
	// Exchange closes the plan at the root.
	n := compile(t, `(project (select (table flights) (> delay 10.0)) (m market))`)
	got := plan.Format(Optimize(n, forcedParallel()))
	if !strings.HasPrefix(got, "exchange 4\n") {
		t.Fatalf("root should be exchange 4:\n%s", got)
	}
	if strings.Count(got, "project") != 4 || strings.Count(got, "select") != 4 {
		t.Errorf("flow operators should be cloned per fraction:\n%s", got)
	}
	if strings.Count(got, "part 0/4") != 1 || strings.Count(got, "part 3/4") != 1 {
		t.Errorf("scan fractions missing:\n%s", got)
	}

	// Stop-and-go at the root: Order closes parallelism below itself.
	n = compile(t, `(order (select (table flights) (> delay 10.0)) (asc market))`)
	got = plan.Format(Optimize(n, forcedParallel()))
	if !strings.HasPrefix(got, "order") {
		t.Fatalf("root should be the serial order:\n%s", got)
	}
	if !strings.Contains(got, "exchange 4") {
		t.Errorf("order input should be an exchange:\n%s", got)
	}
}

// TestLocalGlobalAggPlanShape reproduces Fig. 5: per-fraction local
// aggregation feeding an Exchange feeding the global aggregation.
func TestLocalGlobalAggPlanShape(t *testing.T) {
	n := compile(t, `(aggregate (table flights) (groupby carrier) (aggs (n count *) (s sum distance)))`)
	got := plan.Format(Optimize(n, forcedParallel()))
	if !strings.HasPrefix(got, "aggregate global") {
		t.Fatalf("root should be global aggregate:\n%s", got)
	}
	if strings.Count(got, "aggregate local") != 4 {
		t.Errorf("want 4 local aggregates:\n%s", got)
	}
	if !strings.Contains(got, "exchange 4") {
		t.Errorf("missing exchange:\n%s", got)
	}
	// The global phase merges partial counts by summing.
	if !strings.Contains(got, "n=sum(n)") {
		t.Errorf("global phase should sum partial counts:\n%s", got)
	}
}

// TestParallelJoinPlanShape reproduces Fig. 4: the left (fact) side of the
// join participates in the main parallelism, the right side is an
// independent unit materialized once and shared across the probing clones.
func TestParallelJoinPlanShape(t *testing.T) {
	n := compile(t, `
		(aggregate
			(join (table flights) (table carriers) (on (= flights.carrier carriers.carrier)))
			(groupby airline_name) (aggs (n count *)))`)
	got := plan.Format(Optimize(n, forcedParallel()))
	if strings.Count(got, "join inner") != 4 {
		t.Errorf("join should be cloned per fraction:\n%s", got)
	}
	if strings.Count(got, "shared-table #1") != 4 {
		t.Errorf("all clones must reference the same shared table:\n%s", got)
	}
	// The shared subtree is printed once.
	if strings.Count(got, "scan Extract.carriers") != 1 {
		t.Errorf("the dimension should be scanned once:\n%s", got)
	}
	if strings.Count(got, "scan Extract.flights") != 4 {
		t.Errorf("the fact should be scanned in 4 fractions:\n%s", got)
	}
}

// TestRangePartitionPlanShape verifies the Sect. 4.2.3 optimization: when
// the group-by is a prefix of the sort order, the plan has no global
// aggregate — every partition aggregates its own groups completely.
func TestRangePartitionPlanShape(t *testing.T) {
	n := compile(t, `(aggregate (table flights) (groupby date) (aggs (n count *)))`)
	got := plan.Format(Optimize(n, forcedParallel()))
	if !strings.HasPrefix(got, "exchange") {
		t.Fatalf("root should be the exchange (no global phase):\n%s", got)
	}
	if strings.Contains(got, "global") || strings.Contains(got, "local") {
		t.Errorf("range partitioning should not use local/global:\n%s", got)
	}
	if !strings.Contains(got, "range-part") {
		t.Errorf("scans should carry range partitions:\n%s", got)
	}
	// Partitions of a sorted table stay sorted: streaming applies inside.
	if !strings.Contains(got, "streaming") {
		t.Errorf("partition aggregates should stream:\n%s", got)
	}

	// Group-by (date, hour) covers the full sort key; still applicable.
	n = compile(t, `(aggregate (table flights) (groupby hour date) (aggs (n count *)))`)
	got = plan.Format(Optimize(n, forcedParallel()))
	if strings.Contains(got, "global") {
		t.Errorf("permutation of sort prefix should range-partition:\n%s", got)
	}

	// Group-by hour alone is NOT a sort prefix: local/global expected.
	n = compile(t, `(aggregate (table flights) (groupby hour) (aggs (n count *)))`)
	got = plan.Format(Optimize(n, forcedParallel()))
	if !strings.Contains(got, "aggregate global") {
		t.Errorf("non-prefix group-by must use local/global:\n%s", got)
	}

	// Disabling the optimization falls back to local/global.
	o := forcedParallel()
	o.DisableRangePartition = true
	n = compile(t, `(aggregate (table flights) (groupby date) (aggs (n count *)))`)
	got = plan.Format(Optimize(n, o))
	if !strings.Contains(got, "aggregate global") {
		t.Errorf("disabled range partitioning should use local/global:\n%s", got)
	}
}

func TestAvgDecomposition(t *testing.T) {
	n := compile(t, `(aggregate (table flights) (groupby carrier) (aggs (a avg delay)))`)
	optimized := Optimize(n, forcedParallel())
	got := plan.Format(optimized)
	if !strings.HasPrefix(got, "project") {
		t.Fatalf("avg should finish with a projection:\n%s", got)
	}
	if !strings.Contains(got, "$sum_a") || !strings.Contains(got, "$cnt_a") {
		t.Errorf("avg partials missing:\n%s", got)
	}
	// Schema preserved: carrier, a.
	sch := optimized.Schema()
	if len(sch) != 2 || sch[1].Name != "a" || sch[1].Type != storage.TFloat {
		t.Errorf("schema = %+v", sch)
	}
}

func TestCountDistinctForcesSerialMerge(t *testing.T) {
	n := compile(t, `(aggregate (table flights) (groupby carrier) (aggs (d countd market)))`)
	got := plan.Format(Optimize(n, forcedParallel()))
	if !strings.HasPrefix(got, "aggregate") || strings.Contains(got, "local") {
		t.Fatalf("countd should aggregate serially above the exchange:\n%s", got)
	}
	if !strings.Contains(got, "exchange") {
		t.Errorf("scan should still parallelize below:\n%s", got)
	}
}

func TestFilterPushdownThroughJoin(t *testing.T) {
	n := compile(t, `
		(select
			(join (table flights) (table carriers) (on (= flights.carrier carriers.carrier)))
			(and (> distance 500) (= airline_name "Southwest Airlines")))`)
	got := plan.Format(Logical(n, DefaultOptions()))
	// Both conjuncts move below the join, onto their own sides.
	joinLine := strings.Index(got, "join")
	distLine := strings.Index(got, "(> distance 500)")
	nameLine := strings.Index(got, `(= airline_name "Southwest Airlines")`)
	if joinLine < 0 || distLine < joinLine || nameLine < joinLine {
		t.Errorf("conjuncts should be pushed below the join:\n%s", got)
	}
}

func TestFilterPushdownThroughProject(t *testing.T) {
	n := compile(t, `
		(select (project (table flights) (m market) (d (* distance 2))) (> d 1000))`)
	got := plan.Format(Logical(n, DefaultOptions()))
	if !strings.HasPrefix(got, "project") {
		t.Errorf("filter should slide below project:\n%s", got)
	}
	if !strings.Contains(got, "(* distance 2)") {
		t.Errorf("predicate should be rewritten in scan terms:\n%s", got)
	}
}

func TestJoinCulling(t *testing.T) {
	// The carriers dimension contributes nothing: the join disappears.
	n := compile(t, `
		(aggregate
			(join (table flights) (table carriers) (on (= flights.carrier carriers.carrier)))
			(groupby market) (aggs (n count *)))`)
	got := plan.Format(Logical(n, DefaultOptions()))
	if strings.Contains(got, "join") {
		t.Errorf("n:1 join with unused right side should be culled:\n%s", got)
	}

	// Needed right key columns alias the left key: still cullable.
	n = compile(t, `
		(aggregate
			(join (table flights) (table carriers) (on (= flights.carrier carriers.carrier)))
			(groupby carriers.carrier) (aggs (n count *)))`)
	got = plan.Format(Logical(n, DefaultOptions()))
	if strings.Contains(got, "join") {
		t.Errorf("right-key-only references should alias to the left key:\n%s", got)
	}

	// A join whose right columns are used cannot be culled.
	n = compile(t, `
		(aggregate
			(join (table flights) (table carriers) (on (= flights.carrier carriers.carrier)))
			(groupby airline_name) (aggs (n count *)))`)
	got = plan.Format(Logical(n, DefaultOptions()))
	if !strings.Contains(got, "join") {
		t.Errorf("join with referenced right columns must remain:\n%s", got)
	}
}

func TestJoinCullingPreservesResults(t *testing.T) {
	src := `
		(aggregate
			(join (table flights) (table carriers) (on (= flights.carrier carriers.carrier)))
			(groupby market) (aggs (n count *)))`
	n := compile(t, src)
	culled, err := exec.Run(context.Background(), Logical(n, DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	// The bound plan, before any rewrite, still runs the join.
	kept, err := exec.Run(context.Background(), compile(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if culled.N != kept.N {
		t.Fatalf("culled %d rows vs %d", culled.N, kept.N)
	}
}

func TestColumnPruning(t *testing.T) {
	n := compile(t, `(aggregate (table flights) (groupby carrier) (aggs (n count *)))`)
	got := plan.Format(Logical(n, DefaultOptions()))
	if !strings.Contains(got, "scan Extract.flights [carrier]") {
		t.Errorf("scan should project only carrier:\n%s", got)
	}
}

func TestDomainSimplification(t *testing.T) {
	// distance >= 0 is always true (min is 150, no nulls): filter vanishes.
	n := compile(t, `(select (table flights) (>= distance 0))`)
	got := plan.Format(Logical(n, DefaultOptions()))
	if strings.Contains(got, "select") {
		t.Errorf("always-true filter should be removed:\n%s", got)
	}
	// distance > 1e9 is a contradiction: predicate folds to false.
	n = compile(t, `(select (table flights) (> distance 1000000000))`)
	got = plan.Format(Logical(n, DefaultOptions()))
	if !strings.Contains(got, "select false") {
		t.Errorf("contradiction should fold to false:\n%s", got)
	}
	// delay >= -1000 is always true by domain but delay has nulls: the
	// filter must stay (it removes null rows).
	n = compile(t, `(select (table flights) (>= delay -1000.0))`)
	got = plan.Format(Logical(n, DefaultOptions()))
	if !strings.Contains(got, "select") {
		t.Errorf("nullable column filters must not be removed:\n%s", got)
	}
}

func TestConstantFolding(t *testing.T) {
	n := compile(t, `(select (table flights) (and (> distance 500) (= 1 1)))`)
	got := plan.Format(Logical(n, DefaultOptions()))
	if strings.Contains(got, "(= 1 1)") {
		t.Errorf("constant conjunct should fold away:\n%s", got)
	}
	n = compile(t, `(select (table flights) (or (> distance 500) (= 1 1)))`)
	got = plan.Format(Logical(n, DefaultOptions()))
	if strings.Contains(got, "select") {
		t.Errorf("or-with-true should remove the filter:\n%s", got)
	}
}

func TestStreamingAggregateMarking(t *testing.T) {
	// date is the sort-key prefix: streaming applies.
	n := compile(t, `(aggregate (table flights) (groupby date) (aggs (n count *)))`)
	o := DefaultOptions()
	o.MaxDOP = 1
	got := plan.Format(Logical(n, o))
	if !strings.Contains(got, "streaming") {
		t.Errorf("sorted input should stream:\n%s", got)
	}
	// carrier is not: hash aggregation.
	n = compile(t, `(aggregate (table flights) (groupby carrier) (aggs (n count *)))`)
	got = plan.Format(Logical(n, o))
	if strings.Contains(got, "streaming") {
		t.Errorf("unsorted input cannot stream:\n%s", got)
	}
}

func TestOrderingProperty(t *testing.T) {
	n := compile(t, `(table flights)`)
	ord := Ordering(n)
	if len(ord) != 2 || ord[0] != 0 || ord[1] != 1 {
		t.Errorf("ordering = %v (want [0 1] for date,hour)", ord)
	}
	// Projection that keeps date only preserves a one-column prefix.
	n = compile(t, `(project (table flights) (d date) (m market))`)
	ord = Ordering(n)
	if len(ord) != 1 || ord[0] != 0 {
		t.Errorf("projected ordering = %v", ord)
	}
}

func TestUniqueProperty(t *testing.T) {
	n := compile(t, `(table carriers)`)
	if !Unique(n, []int{0}) {
		t.Error("carrier should be unique in the dimension")
	}
	if Unique(n, []int{1}) {
		t.Error("airline_name is not declared unique")
	}
	n = compile(t, `(aggregate (table flights) (groupby carrier) (aggs (n count *)))`)
	if !Unique(n, []int{0}) {
		t.Error("group-by output should be unique on group columns")
	}
}

func TestEstimateRows(t *testing.T) {
	n := compile(t, `(table flights)`)
	if got := EstimateRows(n); got != int64(workload.DefaultFlightsConfig().Rows) {
		t.Errorf("rows = %d", got)
	}
	n = compile(t, `(topn (table flights) 5 (asc date))`)
	if got := EstimateRows(n); got != 5 {
		t.Errorf("topn rows = %d", got)
	}
}
