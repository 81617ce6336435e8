package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
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

// v1Database is the database testdata/v1.tde holds, a file written by the
// first reader-writer pair of the format: plain int, float and string data,
// run-length and delta data, a dictionary column, null masks, float stats
// of NaN and -0, two schemas, and sort and unique keys.
func v1Database(t *testing.T) *Database {
	t.Helper()
	build := func(name string, typ Type, coll Collation, opt BuildOptions, vals ...Value) *Column {
		t.Helper()
		c, err := BuildColumn(name, typ, coll, vals, opt)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	force := func(e Encoding) BuildOptions { return BuildOptions{ForceEncoding: e, HasForce: true} }
	negZero := math.Copysign(0, -1)
	id := build("id", TInt, CollBinary, force(EncPlain),
		IntValue(7), IntValue(-3), NullValue(TInt), IntValue(1<<40), IntValue(0), IntValue(12))
	price := build("price", TFloat, CollBinary, BuildOptions{},
		FloatValue(negZero), FloatValue(1.5), FloatValue(math.NaN()), NullValue(TFloat), FloatValue(-2.25), FloatValue(math.Inf(1)))
	// The stats the first writer stored, under the float order of its day,
	// in which a NaN compared equal to every number.
	price.Stats.Min, price.Stats.Max, price.Stats.Sorted = FloatValue(negZero), FloatValue(math.NaN()), true
	carrier := build("carrier", TStr, CollCI, force(EncPlain),
		StrValue("WN"), StrValue("aa"), StrValue("AA"), NullValue(TStr), StrValue("DL"), StrValue("WN"))
	note := build("note", TStr, CollBinary, BuildOptions{ForceEncoding: EncPlain, HasForce: true, NoDictionary: true},
		StrValue("h\u00e9llo"), StrValue(""), NullValue(TStr), StrValue("a\x00b"), StrValue("x"), StrValue("y"))
	day := build("day", TDate, CollBinary, force(EncRLE),
		IntValue(16000), IntValue(16000), NullValue(TDate), NullValue(TDate), IntValue(16001), IntValue(16001))
	ts := build("ts", TDateTime, CollBinary, force(EncDelta),
		IntValue(1_400_000_000), IntValue(1_400_000_060), NullValue(TDateTime), IntValue(1_400_003_600), IntValue(1_399_999_000), IntValue(1_400_000_001))
	facts, err := NewTable("Extract", "Facts", []*Column{id, price, carrier, note, day, ts})
	if err != nil {
		t.Fatal(err)
	}
	facts.SortKey = []string{"day", "ts"}
	facts.UniqueKeys = [][]string{{"id"}, {"carrier", "ts"}}
	carriers, err := NewTable("dim", "carriers", []*Column{
		build("code", TStr, CollBinary, BuildOptions{}, StrValue("WN"), StrValue("AA"), StrValue("DL")),
		build("active", TBool, CollBinary, BuildOptions{}, BoolValue(true), BoolValue(false), NullValue(TBool)),
	})
	if err != nil {
		t.Fatal(err)
	}
	carriers.UniqueKeys = [][]string{{"code"}}
	db := NewDatabase("v1")
	for _, tbl := range []*Table{facts, carriers} {
		if err := db.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// dumpDatabase prints every field a file carries, NaN and -0 included.
func dumpDatabase(db *Database) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "database %q\n", db.Name())
	for _, t := range db.AllTables() {
		fmt.Fprintf(&b, "table %s rows %d sort %q unique %q\n", t.QualifiedName(), t.Rows, t.SortKey, t.UniqueKeys)
		for _, c := range t.Cols {
			var dict []string
			if c.Dict != nil {
				dict = append([]string{"dict"}, c.Dict.Values...)
			}
			fmt.Fprintf(&b, "  %s %s %s %q %+v %s %+v\n", c.Name, c.Type, c.Coll, dict, c.Stats, c.Encoding(), c.Data)
		}
	}
	return b.String()
}

// TestFileV1Compat pins the format: a file written when the format was
// introduced reads back to the database it was written from, and writing
// that database again reproduces the file byte for byte.
func TestFileV1Compat(t *testing.T) {
	file, err := os.ReadFile("testdata/v1.tde")
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadDatabase(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	want := v1Database(t)
	if g, w := dumpDatabase(got), dumpDatabase(want); g != w {
		t.Fatalf("testdata/v1.tde reads as\n%s\nwant\n%s", g, w)
	}
	kinds := map[Encoding]bool{}
	for _, tbl := range got.AllTables() {
		for _, c := range tbl.Cols {
			kinds[c.Encoding()] = true
		}
	}
	if len(kinds) != 3 {
		t.Errorf("the file covers encodings %v, want plain, RLE and delta", kinds)
	}
	for _, db := range []*Database{got, want} {
		var buf bytes.Buffer
		if err := WriteDatabase(db, &buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), file) {
			t.Errorf("writing %q gives %d bytes that differ from testdata/v1.tde's %d", db.Name(), buf.Len(), len(file))
		}
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
