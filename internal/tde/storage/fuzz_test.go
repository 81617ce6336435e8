package storage_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"runtime"
	"testing"

	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// forgedFiles returns files the reader must refuse: a 3-row table x.t
// written with one invariant broken that Scan relies on (each made the
// first "(table x.t)" query panic when the reader accepted it), and a whole
// file with a byte after its last table.
func forgedFiles(tb testing.TB) []forgedFile {
	tb.Helper()
	forge := func(mutate func(t *storage.Table)) []byte {
		ints, err := storage.BuildColumn("a", storage.TInt, storage.CollBinary,
			[]storage.Value{storage.IntValue(1), storage.IntValue(2), storage.IntValue(3)}, storage.BuildOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		strs, err := storage.BuildColumn("s", storage.TStr, storage.CollBinary,
			[]storage.Value{storage.StrValue("p"), storage.StrValue("q"), storage.StrValue("p")}, storage.BuildOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		t, err := storage.NewTable("x", "t", []*storage.Column{ints, strs})
		if err != nil {
			tb.Fatal(err)
		}
		mutate(t)
		db := storage.NewDatabase("forged")
		if err := db.AddTable(t); err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := storage.WriteDatabase(db, &buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	return []forgedFile{
		{"10 rows over 3 rows of data", forge(func(t *storage.Table) { t.Rows = 10 })},
		{"token 99 in a 2-value dictionary", forge(func(t *storage.Table) { t.Cols[1].Data = &storage.IntData{Vals: []int64{0, 99, 1}} })},
		{"a column shorter than the others", forge(func(t *storage.Table) { t.Cols[0].Data = &storage.IntData{Vals: []int64{1}} })},
		{"a string column of int data", forge(func(t *storage.Table) { t.Cols[1].Dict = nil })},
		{"a null mask shorter than the data", forge(func(t *storage.Table) {
			t.Cols[0].Data = &storage.IntData{Vals: []int64{1, 2, 3}, Nulls: make([]bool, 2)}
		})},
		{"overlapping runs", forge(func(t *storage.Table) {
			t.Cols[0].Data = &storage.RLEIntData{N: 3, Runs: []storage.Run{{Value: 1, Count: 2}, {Value: 2, Start: 1, Count: 2}}}
		})},
		{"bytes after the last table", append(forge(func(*storage.Table) {}), 0)},
	}
}

type forgedFile struct {
	name string
	file []byte
}

// TestReadRefusesForgedFiles: a table Scan could not read as stored is the
// reader's error, not a panic in the first query over it.
func TestReadRefusesForgedFiles(t *testing.T) {
	for _, f := range forgedFiles(t) {
		if _, err := storage.ReadDatabase(bytes.NewReader(f.file)); err == nil {
			t.Errorf("%s: the reader accepted it", f.name)
		}
	}
}

// scanAll reads every column the way a query does: ScanRange over the rows,
// then every value, dictionary tokens included. Run-length data can claim
// far more rows than its bytes, so a long table is read at both ends.
func scanAll(db *storage.Database) {
	const window = 1 << 12
	for _, t := range db.AllTables() {
		ranges := [][2]int{{0, int(t.Rows)}}
		if t.Rows > 2*window {
			ranges = [][2]int{{0, window}, {int(t.Rows) - window, int(t.Rows)}}
		}
		for _, c := range t.Cols {
			for _, r := range ranges {
				c.ScanRange(r[0], r[1])
				for i := r[0]; i < r[1]; i++ {
					c.Value(i)
				}
			}
		}
	}
}

// FuzzReadDatabase feeds the single-file reader bytes it did not write,
// seeded with a written flights database, its truncations, a forged length
// and the forged files above. Reading returns a database or an error, never
// a panic (TestReadDatabaseAllocatesWhatArrives bounds what it allocates).
// Every column of a database it returns scans and decodes, and the database
// writes back to bytes that read and write again unchanged.
func FuzzReadDatabase(f *testing.F) {
	db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 40, Days: 3, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.WriteDatabase(db, &buf); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	for _, n := range []int{0, 4, 8, 17, len(full) / 4, len(full) / 2, len(full) - 1} {
		f.Add(full[:n])
	}
	// The magic, version 1 and a database name 2^62 bytes long: 17 bytes
	// that once made the reader ask for a 4 EiB string.
	f.Add(binary.AppendUvarint([]byte("TDE1\x01\x00\x00\x00"), 1<<62))
	for _, forged := range forgedFiles(f) {
		f.Add(forged.file)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := storage.ReadDatabase(bytes.NewReader(data))
		if err != nil {
			return
		}
		scanAll(db)
		var once, twice bytes.Buffer
		if err := storage.WriteDatabase(db, &once); err != nil {
			t.Fatalf("writing a database the reader accepted: %v", err)
		}
		again, err := storage.ReadDatabase(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("reading back a written database: %v", err)
		}
		if err := storage.WriteDatabase(again, &twice); err != nil {
			t.Fatalf("writing the database again: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("a write-read-write round trip changed %d bytes into %d", once.Len(), twice.Len())
		}
	})
}

// TestReadDatabaseAllocatesWhatArrives: every length in a file is a claim.
// Each varint of testdata/v1.tde (every count field among them) in turn
// becomes 2^40, and reading the result may allocate no more than a small
// multiple of the bytes it was given.
func TestReadDatabaseAllocatesWhatArrives(t *testing.T) {
	file, err := os.ReadFile("testdata/v1.tde")
	if err != nil {
		t.Fatal(err)
	}
	const perByte, slack = 24, 4 << 10
	for i := range file {
		_, n := binary.Uvarint(file[i:])
		in := append(binary.AppendUvarint(append([]byte(nil), file[:i]...), 1<<40), file[i+max(n, 1):]...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = storage.ReadDatabase(bytes.NewReader(in)) // most are refused; the cost is the point
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > uint64(perByte*len(in)+slack) {
			t.Errorf("2^40 at byte %d: reading %d bytes allocated %d", i, len(in), got)
		}
	}
}
