package opt

import (
	"context"
	"strings"
	"testing"

	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/tql"
)

func TestOrderPreservingExchangePlanShape(t *testing.T) {
	o := forcedParallel()
	o.EnableOrderPreservingExchange = true
	n := compile(t, `(order (select (table flights) (> distance 500)) (asc market) (desc distance))`)
	got := plan.Format(Optimize(n, o))
	if !strings.HasPrefix(got, "exchange-merge 4") {
		t.Fatalf("root should be the merging exchange:\n%s", got)
	}
	if strings.Count(got, "order") != 4 {
		t.Errorf("each fraction should sort locally:\n%s", got)
	}
	// Default (shipped) behaviour keeps the serial sort above a plain exchange.
	n = compile(t, `(order (select (table flights) (> distance 500)) (asc market))`)
	got = plan.Format(Optimize(n, forcedParallel()))
	if !strings.HasPrefix(got, "order") || strings.Contains(got, "exchange-merge") {
		t.Errorf("default must not use order preservation:\n%s", got)
	}
}

func TestOrderPreservingExchangeCorrect(t *testing.T) {
	src := `(order (select (table flights) (> distance 300)) (asc market) (desc distance) (asc date))`
	o := forcedParallel()
	o.EnableOrderPreservingExchange = true
	n, err := tql.Compile(src, db(t))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := exec.Run(context.Background(), Optimize(n, o))
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := tql.Compile(src, db(t))
	serialOpts := DefaultOptions()
	serialOpts.MaxDOP = 1
	want, err := exec.Run(context.Background(), Logical(n2, serialOpts))
	if err != nil {
		t.Fatal(err)
	}
	if merged.N != want.N {
		t.Fatalf("rows %d vs %d", merged.N, want.N)
	}
	// The merged stream must be fully ordered on the sort keys (ties can
	// permute, so compare keys rather than whole rows).
	mi := merged.ColumnIndex("market")
	di := merged.ColumnIndex("distance")
	for i := 1; i < merged.N; i++ {
		a, b := merged.Value(i-1, mi), merged.Value(i, mi)
		if a.S > b.S {
			t.Fatalf("market order broken at %d: %q > %q", i, a.S, b.S)
		}
		if a.S == b.S && merged.Value(i-1, di).I < merged.Value(i, di).I {
			t.Fatalf("distance tiebreak broken at %d", i)
		}
	}
	// Same multiset of key values as the serial plan.
	counts := map[string]int{}
	for i := 0; i < want.N; i++ {
		counts[want.Value(i, mi).S]++
	}
	for i := 0; i < merged.N; i++ {
		counts[merged.Value(i, mi).S]--
	}
	for k, v := range counts {
		if v != 0 {
			t.Fatalf("market %q off by %d", k, v)
		}
	}
}

func TestMergedExchangePreservesStreamingAgg(t *testing.T) {
	// Ordering flows through the merging exchange, so an aggregate above it
	// can stream (Sect. 4.2.4's interaction between parallelization and
	// sorting-based rewrites).
	o := forcedParallel()
	o.EnableOrderPreservingExchange = true
	n := compile(t, `
		(aggregate
			(order (select (table flights) (> distance 300)) (asc market))
			(groupby market) (aggs (n count *)))`)
	got := plan.Format(Optimize(n, o))
	if !strings.Contains(got, "aggregate streaming") {
		t.Errorf("aggregate above merge should stream:\n%s", got)
	}
}
