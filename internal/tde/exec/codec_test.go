package exec

import (
	"encoding/binary"
	"math"
	"testing"

	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
	"vizq/internal/wire"
)

// TestResultCodecRoundTrip: every type, nulls past a byte boundary and a
// dictionary column come back cell for cell; rows past N do not cross.
func TestResultCodecRoundTrip(t *testing.T) {
	schema := []plan.ColInfo{
		{Name: "b", Type: storage.TBool}, {Name: "i", Type: storage.TInt},
		{Name: "f", Type: storage.TFloat}, {Name: "s", Type: storage.TStr, Coll: storage.CollCI},
		{Name: "d", Type: storage.TDate}, {Name: "ts", Type: storage.TDateTime},
	}
	r := NewResult(schema)
	for i := 0; i < 11; i++ {
		row := []storage.Value{
			{Type: storage.TBool, I: int64(i % 2)}, storage.IntValue(int64(i) - 5),
			storage.FloatValue(float64(i) / 3), storage.StrValue(string(rune('a' + i))),
			{Type: storage.TDate, I: int64(i) * 400}, {Type: storage.TDateTime, I: -int64(i) << 40},
		}
		row[i%len(row)] = storage.NullValue(schema[i%len(row)].Type)
		r.AppendRow(row)
	}
	dict := storage.NewDictionary([]string{"x", "y"}, storage.CollBinary)
	r.Schema = append(r.Schema, plan.ColInfo{Name: "tok", Type: storage.TStr})
	r.Cols = append(r.Cols, &storage.Vector{Type: storage.TStr, Dict: dict, I: []int64{0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0}})

	rd := wire.NewReader(AppendResult(nil, r))
	got := ReadResult(rd)
	if err := rd.Done(); err != nil {
		t.Fatal(err)
	}
	if got.N != r.N || len(got.Schema) != len(r.Schema) {
		t.Fatalf("%d rows x %d columns back, want %d x %d", got.N, len(got.Schema), r.N, len(r.Schema))
	}
	for c, info := range r.Schema {
		if got.Schema[c] != info {
			t.Errorf("column %d = %+v, want %+v", c, got.Schema[c], info)
		}
		for i := 0; i < r.N; i++ {
			if a, b := got.Value(i, c), r.Value(i, c); a != b {
				t.Errorf("cell (%d, %d) = %+v, want %+v", i, c, a, b)
			}
		}
	}
}

// TestReadResultChecksEveryColumn: a row count the first column backs but
// a later one does not fails before that column allocates.
func TestReadResultChecksEveryColumn(t *testing.T) {
	r := NewResult([]plan.ColInfo{{Name: "s", Type: storage.TStr}, {Name: "f", Type: storage.TFloat}})
	for i := 0; i < 4; i++ {
		r.AppendRow([]storage.Value{storage.StrValue("abcdefgh"), storage.FloatValue(math.Pi)})
	}
	b := AppendResult(nil, r)
	b = b[:len(b)-8] // the last float is cut off
	rd := wire.NewReader(b)
	if ReadResult(rd); rd.Done() == nil {
		t.Fatal("a result cut short decoded")
	}
	// A type byte past the last type fails too.
	bad := binary.AppendUvarint(nil, 1)
	bad = append(wire.AppendString(bad, "x"), 200, 0, 0, 0)
	rd = wire.NewReader(bad)
	if ReadResult(rd); rd.Done() == nil {
		t.Fatal("an unknown column type decoded")
	}
}
