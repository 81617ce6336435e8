package opt

import (
	"context"
	"strings"
	"testing"

	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
	"vizq/internal/tde/tql"
)

// rleDB builds a table whose "region" column is run-length encoded (sorted,
// few distinct values) — the Sect. 4.3 scenario.
func rleDB(t testing.TB, rows int, regions int) *storage.Database {
	t.Helper()
	regionVals := make([]storage.Value, rows)
	amountVals := make([]storage.Value, rows)
	names := []string{"east", "west", "north", "south", "central", "alpine", "coastal", "plains"}
	for i := 0; i < rows; i++ {
		r := i * regions / rows
		regionVals[i] = storage.StrValue(names[r%len(names)])
		amountVals[i] = storage.IntValue(int64(i % 997))
	}
	region, err := storage.BuildColumn("region", storage.TStr, storage.CollBinary, regionVals, storage.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if region.Encoding() != storage.EncRLE {
		t.Fatalf("region should be RLE, got %v", region.Encoding())
	}
	amount, err := storage.BuildColumn("amount", storage.TInt, storage.CollBinary, amountVals, storage.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := storage.NewTable("Extract", "sales", []*storage.Column{region, amount})
	if err != nil {
		t.Fatal(err)
	}
	tbl.SortKey = []string{"region"}
	d := storage.NewDatabase("rle")
	if err := d.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRLEIndexRewriteFires(t *testing.T) {
	d := rleDB(t, 8000, 8)
	n, err := tql.Compile(`(select (table sales) (= region "north"))`, d)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.MaxDOP = 1
	got := plan.Format(Logical(n, o))
	if !strings.Contains(got, "index(region)") {
		t.Fatalf("RLE index rewrite should fire:\n%s", got)
	}
	if strings.Contains(got, "select") {
		t.Errorf("the matched conjunct should be consumed by the ranges:\n%s", got)
	}
}

func TestRLEIndexRewriteCorrect(t *testing.T) {
	d := rleDB(t, 8000, 8)
	for _, q := range []string{
		`(aggregate (select (table sales) (= region "north")) (groupby) (aggs (n count *) (s sum amount)))`,
		`(aggregate (select (table sales) (in region ["east" "south"])) (groupby region) (aggs (n count *)))`,
		`(aggregate (select (table sales) (and (= region "west") (> amount 100))) (groupby) (aggs (n count *)))`,
		`(aggregate (select (table sales) (< region "f")) (groupby region) (aggs (n count *)))`,
	} {
		n, err := tql.Compile(q, d)
		if err != nil {
			t.Fatal(err)
		}
		withIdx := DefaultOptions()
		withIdx.MaxDOP = 1
		noIdx := withIdx
		noIdx.DisableRLEIndex = true

		a, err := exec.Run(context.Background(), Logical(n, withIdx))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		n2, _ := tql.Compile(q, d)
		b, err := exec.Run(context.Background(), Logical(n2, noIdx))
		if err != nil {
			t.Fatal(err)
		}
		if a.N != b.N {
			t.Fatalf("%s: %d vs %d rows", q, a.N, b.N)
		}
		for i := 0; i < a.N; i++ {
			for c := range a.Cols {
				av, bv := a.Value(i, c), b.Value(i, c)
				if !storage.Equal(av, bv, storage.CollBinary) {
					t.Fatalf("%s: row %d col %d: %v vs %v", q, i, c, av, bv)
				}
			}
		}
	}
}

func TestRLEIndexSelectivityGuard(t *testing.T) {
	d := rleDB(t, 8000, 2) // each region covers 50% of rows
	n, err := tql.Compile(`(select (table sales) (= region "east"))`, d)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.MaxDOP = 1
	got := plan.Format(Logical(n, o))
	if strings.Contains(got, "index(") {
		t.Errorf("unselective predicate should not use index ranges:\n%s", got)
	}
}

func TestRLEIndexSkipsNonRLEColumns(t *testing.T) {
	d := rleDB(t, 8000, 8)
	n, err := tql.Compile(`(select (table sales) (= amount 5))`, d)
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.MaxDOP = 1
	got := plan.Format(Logical(n, o))
	if strings.Contains(got, "index(") {
		t.Errorf("plain column should not index:\n%s", got)
	}
}

func TestRLEIndexWithParallelism(t *testing.T) {
	// The index rewrite reduces rows, interacting with DOP choice; results
	// must stay correct either way (Sect. 4.3 discusses the tension).
	d := rleDB(t, 40_000, 8)
	q := `(aggregate (select (table sales) (= region "north")) (groupby amount) (aggs (n count *)))`
	n, _ := tql.Compile(q, d)
	par := Optimize(n, forcedParallel())
	a, err := exec.Run(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := tql.Compile(q, d)
	o := DefaultOptions()
	o.MaxDOP = 1
	o.DisableRLEIndex = true
	b, err := exec.Run(context.Background(), Logical(n2, o))
	if err != nil {
		t.Fatal(err)
	}
	if a.N != b.N {
		t.Fatalf("parallel+index %d rows vs serial %d", a.N, b.N)
	}
}
