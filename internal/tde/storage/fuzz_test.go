package storage_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// FuzzReadDatabase feeds the single-file reader bytes it did not write,
// seeded with a written flights database, its truncations and a forged
// length. Reading returns a database or an error, never a panic, and never
// allocates for a length the input does not hold. A database it returns
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
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := storage.ReadDatabase(bytes.NewReader(data))
		if err != nil {
			return
		}
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
