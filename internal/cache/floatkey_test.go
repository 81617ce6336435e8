package cache

import (
	"bytes"
	"math"
	"testing"

	"vizq/internal/query"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

func floatKey(f float64) []byte {
	return storage.AppendKey(nil, storage.FloatValue(f), storage.CollBinary)
}

// TestFloatKeyDistinguishesLargeValues is the regression for the grouping
// key overflow: the old uint64(int64(v.F*1e9)) encoding overflowed for any
// |v| >= ~9.22e9, collapsing distinct large floats into one roll-up group,
// and also collided values closer than 1e-9.
func TestFloatKeyDistinguishesLargeValues(t *testing.T) {
	collisions := [][2]float64{
		{1e10, 2e10},    // both overflow int64(v*1e9) pre-fix
		{9.3e9, -9.3e9}, // overflow in both directions
		{1e18, 1e18 + 1e3},
		{1.0, 1.0 + 1e-10}, // below the old 1e-9 granularity
	}
	for _, pair := range collisions {
		if bytes.Equal(floatKey(pair[0]), floatKey(pair[1])) {
			t.Errorf("keys for %g and %g collide", pair[0], pair[1])
		}
	}
	// -0.0 and +0.0 are the same group.
	if !bytes.Equal(floatKey(math.Copysign(0, -1)), floatKey(0)) {
		t.Error("-0.0 and +0.0 must share a grouping key")
	}
}

// TestFloatKeyOrderPreserving checks that the encoded bytes sort like the
// floats (sign-flip canonicalization of the IEEE-754 bits).
func TestFloatKeyOrderPreserving(t *testing.T) {
	sorted := []float64{math.Inf(-1), -1e300, -9.3e9, -5.25, -1e-12, 0, 1e-12, 3.14, 9.3e9, 1e300, math.Inf(1)}
	for i := 1; i < len(sorted); i++ {
		if bytes.Compare(floatKey(sorted[i-1]), floatKey(sorted[i])) >= 0 {
			t.Errorf("key(%g) should sort before key(%g)", sorted[i-1], sorted[i])
		}
	}
}

// TestDeriveFloatGroupingRegression drives the overflow through Derive:
// a stored result with two large distinct float dimension values must not
// collapse into one group (pre-fix it did, corrupting the roll-up sum).
func TestDeriveFloatGroupingRegression(t *testing.T) {
	s := &query.Query{
		DataSource: "metrics",
		View:       query.View{Table: "metrics"},
		Dims:       []query.Dim{{Col: "bucket"}},
		Measures:   []query.Measure{{Fn: query.Sum, Col: "x", As: "sx"}},
	}
	sres := exec.NewResult([]plan.ColInfo{
		{Name: "bucket", Type: storage.TFloat},
		{Name: "sx", Type: storage.TInt},
	})
	sres.AppendRow([]storage.Value{storage.FloatValue(1e10), storage.IntValue(7)})
	sres.AppendRow([]storage.Value{storage.FloatValue(2e10), storage.IntValue(5)})

	got, ok := Derive(s, sres, s.Clone())
	if !ok {
		t.Fatal("identity derive failed")
	}
	if got.N != 2 {
		t.Fatalf("distinct large float buckets merged: got %d rows, want 2", got.N)
	}
	sums := map[float64]int64{}
	for i := 0; i < got.N; i++ {
		sums[got.Value(i, 0).F] = got.Value(i, 1).I
	}
	if sums[1e10] != 7 || sums[2e10] != 5 {
		t.Fatalf("roll-up sums corrupted: %v", sums)
	}
}
