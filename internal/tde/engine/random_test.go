package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vizq/internal/tde/exec"
	"vizq/internal/tde/opt"
)

// TestRandomQueriesOptimizedEqualsNaive generates random TQL queries over
// the flights schema and checks that three optimized plans (DOP 1, the
// default DOP and a forced DOP 3) give the rows of the plan run as compiled,
// which no optimizer rule touches. This is the optimizer's broadest
// correctness net.
func TestRandomQueriesOptimizedEqualsNaive(t *testing.T) {
	e := getEngine(t)
	forced := New(e.Database())
	o := opt.DefaultOptions()
	o.GrainWork = 1
	o.MaxDOP = 3
	forced.SetOptions(o)
	runs := []struct {
		name string
		fn   func(context.Context, string) (*exec.Result, error)
	}{{"dop 1", e.QuerySerial}, {"default dop", e.Query}, {"dop 3", forced.Query}}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		src := randomQuery(rng)
		ref, err := e.QueryReference(ctx(), src)
		if err != nil {
			t.Fatalf("trial %d reference failed: %v\n%s", trial, err, src)
		}
		want := rowsAsStrings(ref)
		for _, run := range runs {
			res, err := run.fn(ctx(), src)
			if err != nil {
				t.Fatalf("trial %d %s failed: %v\n%s", trial, run.name, err, src)
			}
			if strings.HasPrefix(src, "(topn") {
				// Row membership of a top-n can differ on ranking ties;
				// compare counts only.
				if res.N != ref.N {
					t.Fatalf("trial %d %s: topn rows %d, reference %d\n%s", trial, run.name, res.N, ref.N, src)
				}
				continue
			}
			if got := rowsAsStrings(res); !slices.Equal(got, want) {
				t.Fatalf("trial %d %s: %d rows, reference %d\n%s", trial, run.name, len(got), len(want), src)
			}
		}
	}
}

// randomQuery draws an aggregate query over the flights schema: an optional
// join with carriers, zero to two filter predicates (numeric compares, IN
// lists, float compares, string equality), one or two group columns, one
// to three aggregates, and an optional order or top-n (which always counts
// rows as n, its first ranking key).
func randomQuery(rng *rand.Rand) string {
	dims := []string{"carrier", "origin", "dest", "market", "hour", "date", "cancelled"}
	numCols := []string{"distance", "hour"}
	strVals := map[string][]string{
		"carrier": {"WN", "AA", "DL", "UA"},
		"origin":  {"LAX", "ATL", "ORD", "JFK"},
		"dest":    {"SFO", "DEN", "MIA"},
	}

	randPred := func() string {
		switch rng.Intn(4) {
		case 0:
			col := numCols[rng.Intn(len(numCols))]
			op := []string{">", ">=", "<", "<=", "=", "!="}[rng.Intn(6)]
			return fmt.Sprintf("(%s %s %d)", op, col, rng.Intn(2000))
		case 1:
			col := []string{"carrier", "origin", "dest"}[rng.Intn(3)]
			vals := strVals[col]
			n := 1 + rng.Intn(len(vals))
			quoted := make([]string, n)
			for i := 0; i < n; i++ {
				quoted[i] = fmt.Sprintf("%q", vals[rng.Intn(len(vals))])
			}
			return fmt.Sprintf("(in %s [%s])", col, strings.Join(quoted, " "))
		case 2:
			return fmt.Sprintf("(> delay %d.0)", rng.Intn(60)-10)
		default:
			return fmt.Sprintf("(= carrier %q)", strVals["carrier"][rng.Intn(4)])
		}
	}

	rel := "(table flights)"
	if rng.Intn(3) == 0 {
		rel = "(join (table flights) (table carriers) (on (= flights.carrier carriers.carrier)))"
	}
	switch rng.Intn(3) {
	case 0:
		rel = fmt.Sprintf("(select %s %s)", rel, randPred())
	case 1:
		rel = fmt.Sprintf("(select %s (and %s %s))", rel, randPred(), randPred())
	}
	nG := 1 + rng.Intn(2)
	groups := map[string]bool{}
	for len(groups) < nG {
		groups[dims[rng.Intn(len(dims))]] = true
	}
	var gl []string
	for g := range groups {
		gl = append(gl, g)
	}
	aggPool := []string{
		"(n count *)", "(s sum distance)", "(a avg delay)",
		"(mn min delay)", "(mx max distance)", "(d countd market)",
	}
	nA := 1 + rng.Intn(3)
	var aggs []string
	for i := 0; i < nA; i++ {
		aggs = append(aggs, aggPool[rng.Intn(len(aggPool))])
	}
	seen := map[string]bool{}
	var uniq []string
	for _, a := range aggs {
		if !seen[a] {
			seen[a] = true
			uniq = append(uniq, a)
		}
	}
	q := fmt.Sprintf("(aggregate %s (groupby %s) (aggs %s))",
		rel, strings.Join(gl, " "), strings.Join(uniq, " "))
	switch rng.Intn(4) {
	case 0:
		q = fmt.Sprintf("(topn %s %d (desc n) (asc %s))", q, 1+rng.Intn(8), gl[0])
	case 1:
		q = fmt.Sprintf("(order %s (asc %s))", q, gl[0])
	}
	if strings.Contains(q, "topn") && !strings.Contains(q, "(n count *)") {
		q = strings.Replace(q, "(aggs ", "(aggs (n count *) ", 1)
	}
	return q
}
