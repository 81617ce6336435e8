package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func intVals(xs ...int64) []Value {
	out := make([]Value, len(xs))
	for i, x := range xs {
		out[i] = IntValue(x)
	}
	return out
}

func strVals(xs ...string) []Value {
	out := make([]Value, len(xs))
	for i, x := range xs {
		out[i] = StrValue(x)
	}
	return out
}

func TestBuildColumnRLEChoice(t *testing.T) {
	// Long runs should pick RLE.
	vals := make([]Value, 1000)
	for i := range vals {
		vals[i] = IntValue(int64(i / 250))
	}
	col, err := BuildColumn("c", TInt, CollBinary, vals, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Encoding() != EncRLE {
		t.Fatalf("encoding = %v, want rle", col.Encoding())
	}
	runs, ok := col.RLERuns()
	if !ok || len(runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(runs))
	}
	if !col.Stats.Sorted || col.Stats.Distinct != 4 {
		t.Errorf("stats = %+v", col.Stats)
	}
}

func TestBuildColumnDeltaChoice(t *testing.T) {
	vals := make([]Value, 1000)
	for i := range vals {
		vals[i] = IntValue(int64(1_000_000 + i))
	}
	col, err := BuildColumn("c", TInt, CollBinary, vals, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Encoding() != EncDelta {
		t.Fatalf("encoding = %v, want delta", col.Encoding())
	}
	if col.Value(500).I != 1_000_500 {
		t.Errorf("Value(500) = %v", col.Value(500))
	}
}

func TestBuildColumnPlainChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]Value, 1000)
	for i := range vals {
		vals[i] = IntValue(rng.Int63())
	}
	col, err := BuildColumn("c", TInt, CollBinary, vals, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Encoding() != EncPlain {
		t.Fatalf("encoding = %v, want plain", col.Encoding())
	}
}

func TestBuildColumnDictionary(t *testing.T) {
	vals := strVals("WN", "AA", "DL", "AA", "WN", "UA", "AA", "DL")
	col, err := BuildColumn("carrier", TStr, CollBinary, vals, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Dict == nil {
		t.Fatal("expected dictionary compression")
	}
	if col.Dict.Len() != 4 {
		t.Fatalf("dict len = %d, want 4", col.Dict.Len())
	}
	// Dictionary is sorted, so tokens order like values.
	want := []string{"AA", "DL", "UA", "WN"}
	for i, w := range want {
		if col.Dict.Value(int32(i)) != w {
			t.Errorf("dict[%d] = %q, want %q", i, col.Dict.Value(int32(i)), w)
		}
	}
	for i, v := range vals {
		if got := col.Value(i); got.S != v.S {
			t.Errorf("Value(%d) = %q, want %q", i, got.S, v.S)
		}
	}
}

func TestDictionaryCollationCI(t *testing.T) {
	vals := strVals("aa", "AA", "bb", "BB", "aa")
	col, err := BuildColumn("c", TStr, CollCI, vals, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Dict == nil || col.Dict.Len() != 2 {
		t.Fatalf("CI dictionary should have 2 entries, got %v", col.Dict)
	}
	tok1, ok1 := col.Dict.Lookup("AA")
	tok2, ok2 := col.Dict.Lookup("aa")
	if !ok1 || !ok2 || tok1 != tok2 {
		t.Errorf("CI lookup: %v/%v %v/%v", tok1, ok1, tok2, ok2)
	}
	if _, ok := col.Dict.Lookup("zzz"); ok {
		t.Error("Lookup of absent value should fail")
	}
}

func TestColumnNulls(t *testing.T) {
	vals := []Value{IntValue(1), NullValue(TInt), IntValue(3)}
	col, err := BuildColumn("c", TInt, CollBinary, vals, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if col.Stats.Nulls != 1 {
		t.Errorf("null count = %d", col.Stats.Nulls)
	}
	if !col.Value(1).Null {
		t.Error("row 1 should be null")
	}
	v := col.ScanRange(0, 3)
	if !v.IsNull(1) || v.IsNull(0) || v.IsNull(2) {
		t.Error("scan null mask wrong")
	}
}

func TestScanRangeRLE(t *testing.T) {
	vals := make([]Value, 100)
	for i := range vals {
		vals[i] = IntValue(int64(i / 10))
	}
	col, err := BuildColumn("c", TInt, CollBinary, vals, BuildOptions{ForceEncoding: EncRLE, HasForce: true})
	if err != nil {
		t.Fatal(err)
	}
	v := col.ScanRange(15, 35)
	if v.Len() != 20 {
		t.Fatalf("len = %d", v.Len())
	}
	for i := 0; i < 20; i++ {
		want := int64((15 + i) / 10)
		if v.I[i] != want {
			t.Errorf("row %d = %d, want %d", i, v.I[i], want)
		}
	}
}

// Property: every encoding round-trips point access against plain storage.
func TestEncodingRoundTripQuick(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]Value, len(raw))
		for i, r := range raw {
			vals[i] = IntValue(int64(r))
		}
		for _, enc := range []Encoding{EncPlain, EncRLE, EncDelta} {
			col, err := BuildColumn("c", TInt, CollBinary, vals, BuildOptions{ForceEncoding: enc, HasForce: true})
			if err != nil {
				return false
			}
			for i, v := range vals {
				if col.Value(i).I != v.I {
					return false
				}
			}
			got := col.ScanRange(0, len(vals))
			for i, v := range vals {
				if got.I[i] != v.I {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVectorGatherSliceDecode(t *testing.T) {
	vals := strVals("x", "y", "x", "z")
	col, _ := BuildColumn("c", TStr, CollBinary, vals, BuildOptions{})
	v := col.ScanRange(0, 4)
	if v.Dict == nil {
		t.Fatal("expected token vector")
	}
	g := v.Gather([]int32{3, 0})
	dec := g.Decode()
	if dec.S[0] != "z" || dec.S[1] != "x" {
		t.Errorf("gather+decode = %v", dec.S)
	}
	s := v.Slice(1, 3).Decode()
	if s.S[0] != "y" || s.S[1] != "x" {
		t.Errorf("slice+decode = %v", s.S)
	}
}

func TestConstVector(t *testing.T) {
	v := ConstVector(IntValue(7), 5)
	if v.Len() != 5 || v.I[4] != 7 {
		t.Error("const int vector wrong")
	}
	nv := ConstVector(NullValue(TStr), 3)
	if !nv.IsNull(2) {
		t.Error("const null vector wrong")
	}
}
