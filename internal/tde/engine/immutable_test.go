package engine

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"vizq/internal/tde/opt"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// nullFlightsDB rebuilds the flights table with a null in every 23rd row of
// every column and with each physical shape the scan hands out: plain
// values and plain dictionary tokens (views), plus run-length and delta
// data (decoded).
func nullFlightsDB(t *testing.T) *storage.Database {
	t.Helper()
	src, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 3000, Days: 60, Seed: 2, Carriers: 6, Airports: 12})
	if err != nil {
		t.Fatal(err)
	}
	flights, err := src.Table("Extract", "flights")
	if err != nil {
		t.Fatal(err)
	}
	force := func(e storage.Encoding) storage.BuildOptions {
		return storage.BuildOptions{HasForce: true, ForceEncoding: e}
	}
	opts := map[string]storage.BuildOptions{
		"date":      force(storage.EncDelta),
		"hour":      force(storage.EncPlain),
		"origin":    force(storage.EncPlain),
		"dest":      force(storage.EncRLE),
		"market":    {NoDictionary: true, HasForce: true, ForceEncoding: storage.EncPlain},
		"cancelled": force(storage.EncRLE),
		"distance":  force(storage.EncPlain),
	}
	var cols []*storage.Column
	for _, c := range flights.Cols {
		vals := make([]storage.Value, c.Len())
		for i := range vals {
			vals[i] = c.Value(i)
			if i%23 == 5 {
				vals[i] = storage.NullValue(c.Type)
			}
		}
		col, err := storage.BuildColumn(c.Name, c.Type, c.Coll, vals, opts[c.Name])
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, col)
	}
	rebuilt, err := storage.NewTable("Extract", "flights", cols)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDatabase("flights")
	carriers, err := src.Table("Extract", "carriers")
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*storage.Table{rebuilt, carriers} {
		if err := db.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// physicalSums fingerprints every column's stored data, null mask and
// dictionary.
func physicalSums(db *storage.Database) map[string][32]byte {
	sums := map[string][32]byte{}
	for _, tbl := range db.AllTables() {
		for _, c := range tbl.Cols {
			var dict []string
			if c.Dict != nil {
				dict = c.Dict.Values
			}
			sums[tbl.Name+"."+c.Name] = sha256.Sum256([]byte(fmt.Sprintf("%v %q", c.Data, dict)))
		}
	}
	return sums
}

// Scans hand out views of the stored columns, so no query may write through
// a vector it was given: random queries, serial and parallel, and
// projections that divide by zero leave every stored byte as it was.
func TestQueriesNeverWriteStoredData(t *testing.T) {
	db := nullFlightsDB(t)
	flights, err := db.Table("Extract", "flights")
	if err != nil {
		t.Fatal(err)
	}
	encodings := map[storage.Encoding]bool{}
	dicts := 0
	for _, c := range flights.Cols {
		encodings[c.Encoding()] = true
		if c.Dict != nil {
			dicts++
		}
	}
	if len(encodings) != 3 || dicts == 0 {
		t.Fatalf("fixture covers encodings %v and %d dictionary columns", encodings, dicts)
	}
	before := physicalSums(db)

	serial := New(db)
	parallel := New(db)
	o := opt.DefaultOptions()
	o.GrainWork = 1
	o.MaxDOP = 3
	parallel.SetOptions(o)
	queries := []string{
		`(project (table flights) hour distance (q (/ distance (- hour hour))) (m (% hour 0)) delay (x (/ delay 0)))`,
		`(project (select (table flights) (in carrier ["WN" "AA"])) (q (/ hour (- distance distance))) hour)`,
	}
	rng := rand.New(rand.NewSource(5))
	for len(queries) < 42 {
		queries = append(queries, randomQuery(rng))
	}
	for _, q := range queries {
		if _, err := serial.QuerySerial(ctx(), q); err != nil {
			t.Fatalf("%v\n%s", err, q)
		}
		if _, err := parallel.Query(ctx(), q); err != nil {
			t.Fatalf("%v\n%s", err, q)
		}
	}
	after := physicalSums(db)
	for name, sum := range before {
		if after[name] != sum {
			t.Errorf("column %s changed", name)
		}
	}

	v := flights.Column("distance").ScanRange(100, 200)
	if len(v.I) != 100 || cap(v.I) != len(v.I) || cap(v.Null) != len(v.Null) {
		t.Errorf("plain scan: len %d cap %d, null len %d cap %d", len(v.I), cap(v.I), len(v.Null), cap(v.Null))
	}
}
