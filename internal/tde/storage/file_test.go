package storage

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
)

func buildTestDB(t *testing.T) *Database {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	n := 500
	dates := make([]Value, n)
	carriers := make([]Value, n)
	delays := make([]Value, n)
	dists := make([]Value, n)
	names := []string{"WN", "AA", "DL", "UA", "B6"}
	for i := 0; i < n; i++ {
		dates[i] = IntValue(int64(16000 + i/50))
		carriers[i] = StrValue(names[rng.Intn(len(names))])
		if rng.Intn(20) == 0 {
			delays[i] = NullValue(TFloat)
		} else {
			delays[i] = FloatValue(rng.Float64() * 60)
		}
		dists[i] = IntValue(int64(rng.Intn(3000)))
	}
	date, err := BuildColumn("date", TDate, CollBinary, dates, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	carrier, err := BuildColumn("carrier", TStr, CollCI, carriers, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	delay, err := BuildColumn("delay", TFloat, CollBinary, delays, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := BuildColumn("distance", TInt, CollBinary, dists, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := NewTable("Extract", "flights", []*Column{date, carrier, delay, dist})
	if err != nil {
		t.Fatal(err)
	}
	tbl.SortKey = []string{"date"}
	tbl.UniqueKeys = [][]string{{"date", "distance"}}
	db := NewDatabase("testdb")
	if err := db.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestFileRoundTrip(t *testing.T) {
	db := buildTestDB(t)
	var buf bytes.Buffer
	if err := WriteDatabase(db, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "testdb" {
		t.Errorf("name = %q", got.Name())
	}
	want, _ := db.Table("Extract", "flights")
	tbl, err := got.Table("extract", "FLIGHTS") // case-insensitive resolution
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Rows != want.Rows || len(tbl.Cols) != len(want.Cols) {
		t.Fatalf("table shape mismatch: %d/%d cols %d/%d rows",
			len(tbl.Cols), len(want.Cols), tbl.Rows, want.Rows)
	}
	if len(tbl.SortKey) != 1 || tbl.SortKey[0] != "date" {
		t.Errorf("sort key = %v", tbl.SortKey)
	}
	if !tbl.HasUniqueKey([]string{"distance", "date"}) {
		t.Error("unique key lost")
	}
	for ci, wc := range want.Cols {
		gc := tbl.Cols[ci]
		if gc.Name != wc.Name || gc.Type != wc.Type || gc.Coll != wc.Coll || gc.Encoding() != wc.Encoding() {
			t.Fatalf("column %d meta mismatch: %+v vs %+v", ci, gc, wc)
		}
		for i := 0; i < int(tbl.Rows); i++ {
			a, b := gc.Value(i), wc.Value(i)
			if !Equal(a, b, gc.Coll) {
				t.Fatalf("col %s row %d: %v != %v", gc.Name, i, a, b)
			}
		}
		if gc.Stats.Distinct != wc.Stats.Distinct || gc.Stats.Sorted != wc.Stats.Sorted {
			t.Errorf("col %s stats mismatch", gc.Name)
		}
	}
}

func TestFileOnDisk(t *testing.T) {
	db := buildTestDB(t)
	path := filepath.Join(t.TempDir(), "db.tde")
	if err := SaveDatabase(db, path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Table("Extract", "flights"); err != nil {
		t.Fatal(err)
	}
}

func TestFileBadMagic(t *testing.T) {
	if _, err := ReadDatabase(bytes.NewReader([]byte("NOPE0000"))); err == nil {
		t.Error("expected error on bad magic")
	}
}

func TestDatabaseCatalog(t *testing.T) {
	db := buildTestDB(t)
	if got := db.Schemas(); len(got) != 1 || got[0] != "extract" {
		t.Errorf("schemas = %v", got)
	}
	tbl, _ := db.Table("Extract", "flights")
	if db.AddTable(tbl) == nil {
		t.Error("duplicate AddTable should fail")
	}
	if tbl.Column("CARRIER") == nil {
		t.Error("case-insensitive column lookup failed")
	}
	if tbl.ColumnIndex("delay") != 2 {
		t.Errorf("ColumnIndex = %d", tbl.ColumnIndex("delay"))
	}
	if tbl.SortPrefix([]string{"date", "carrier"}) != 1 {
		t.Error("SortPrefix should be 1")
	}
	if tbl.SortPrefix([]string{"carrier"}) != 0 {
		t.Error("SortPrefix should be 0")
	}
	fresh, _ := NewTable("extract", "FLIGHTS", tbl.Cols)
	db.Replace(fresh)
	if got, _ := db.Table("Extract", "flights"); got != fresh {
		t.Error("Replace should install the new table under the old name")
	}
	if n := len(db.AllTables()); n != 1 {
		t.Errorf("AllTables after Replace = %d, want 1", n)
	}
}

func TestNewTableValidation(t *testing.T) {
	c1, _ := BuildColumn("a", TInt, CollBinary, intVals(1, 2), BuildOptions{})
	c2, _ := BuildColumn("b", TInt, CollBinary, intVals(1), BuildOptions{})
	if _, err := NewTable("s", "t", []*Column{c1, c2}); err == nil {
		t.Error("ragged table should fail")
	}
	c3, _ := BuildColumn("A", TInt, CollBinary, intVals(3, 4), BuildOptions{})
	if _, err := NewTable("s", "t", []*Column{c1, c3}); err == nil {
		t.Error("duplicate column names should fail")
	}
	if _, err := NewTable("s", "t", nil); err == nil {
		t.Error("empty table should fail")
	}
}
