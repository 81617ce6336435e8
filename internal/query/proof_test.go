package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vizq/internal/tde/storage"
)

// TestInProofUsesTheKeyRule pins two proofs a member-by-member Equal scan
// got wrong: the executor's IN (storage.KeySet) matches neither a NaN
// against 1.0 nor "" against 0, so neither list implies the other. Every
// NaN is one key, whatever its sign.
func TestInProofUsesTheKeyRule(t *testing.T) {
	nan, one := storage.FloatValue(math.NaN()), storage.FloatValue(1)
	for _, typ := range []storage.Type{storage.TFloat, storage.TNull} {
		if InFilter("x", nan).Implies(InFilter("x", one), typ, storage.CollBinary) {
			t.Errorf("%v column: {NaN} ⊆ {1.0} proven", typ)
		}
		if !InFilter("x", nan).Equals(InFilter("x", storage.FloatValue(-nan.F)), typ, storage.CollBinary) {
			t.Errorf("%v column: {NaN} ≠ {-NaN}", typ)
		}
	}
	for _, typ := range []storage.Type{storage.TStr, storage.TNull} {
		if InFilter("x", sv("")).Implies(InFilter("x", iv(0)), typ, storage.CollBinary) {
			t.Errorf(`%v column: {""} ⊆ {0} proven`, typ)
		}
	}
	// A member the column cannot hold selects no rows and is left out.
	if !InFilter("x", sv(""), iv(2)).Equals(InFilter("x", storage.FloatValue(2)), storage.TInt, storage.CollBinary) {
		t.Error(`int column: {"", 2} ≠ {2.0}`)
	}
	if !InFilter("x", storage.FloatValue(2.5)).Implies(InFilter("x"), storage.TInt, storage.CollBinary) {
		t.Error("int column: {2.5} selects no rows, yet is not within {}")
	}
}

// TestInWithinRangeOrdersNaN: a NaN lies below every number, as the
// executor orders it. An IN list with a NaN the column can hold is within a
// range with no lower bound and within no range with one, -Inf included,
// while a column that cannot hold the NaN (an int column) leaves it out of
// the proof.
func TestInWithinRangeOrdersNaN(t *testing.T) {
	nanIn := InFilter("x", storage.FloatValue(math.NaN()), iv(2))
	for _, c := range []struct {
		g      Filter
		within bool
	}{
		{RangeFilter("x", storage.FloatValue(1), storage.FloatValue(5)), false},
		{GtFilter("x", storage.FloatValue(1)), false},
		{RangeFilter("x", storage.FloatValue(math.Inf(-1)), storage.FloatValue(math.Inf(1))), false},
		{RangeFilter("x", storage.NullValue(storage.TFloat), storage.FloatValue(5)), true},
		{RangeFilter("x", storage.FloatValue(math.NaN()), storage.FloatValue(2)), true},
	} {
		for _, typ := range []storage.Type{storage.TFloat, storage.TNull} {
			if nanIn.Implies(c.g, typ, storage.CollBinary) != c.within {
				t.Errorf("%v column: {NaN, 2} ⊆ %s is %v, want %v", typ, FilterTQL(c.g), !c.within, c.within)
			}
		}
		if !nanIn.Implies(c.g, storage.TInt, storage.CollBinary) {
			t.Errorf("int column: {NaN, 2} ⊆ %s not proven, yet the column holds no NaN", FilterTQL(c.g))
		}
	}
}

// keyRuleWithin is the oracle: every member of f a column of type typ can
// hold is in the executor's KeySet of g.
func keyRuleWithin(f, g []storage.Value, typ storage.Type, coll storage.Collation) bool {
	set := storage.NewKeySet(typ, coll, g)
	for _, v := range f {
		if _, ok := storage.ColumnValue(typ, v); ok && !set.Has(v) {
			return false
		}
	}
	return true
}

// proofPool is the values the differential test draws lists from: ±0, NaN
// and infinities, nulls, case variants, whole and fractional floats for int
// columns, and strings that spell numbers.
var proofPool = []storage.Value{
	iv(0), iv(1), iv(2), iv(-1),
	storage.FloatValue(0), storage.FloatValue(math.Copysign(0, -1)), storage.FloatValue(math.NaN()),
	storage.FloatValue(1), storage.FloatValue(1.5), storage.FloatValue(2), storage.FloatValue(math.Inf(-1)),
	storage.NullValue(storage.TInt), storage.NullValue(storage.TStr), storage.NullValue(storage.TFloat),
	sv(""), sv("a"), sv("A"), sv("b"), sv("B"), sv("0"), sv("LAX"), sv("lax"),
	{Type: storage.TDate, I: 1}, {Type: storage.TDate, I: 2}, storage.BoolValue(true), storage.BoolValue(false),
}

// proofList draws n members: from proofPool, or for long lists mostly from
// a range of ints and strings wide enough to hold 300 distinct values.
func proofList(rng *rand.Rand, n int) []storage.Value {
	out := make([]storage.Value, n)
	for i := range out {
		switch k := rng.Intn(4); {
		case n < 10 || k == 0:
			out[i] = proofPool[rng.Intn(len(proofPool))]
		case k == 1:
			out[i] = iv(int64(rng.Intn(400)))
		default:
			s := fmt.Sprintf("m%d", rng.Intn(400))
			if k == 3 {
				s = fmt.Sprintf("M%d", rng.Intn(400))
			}
			out[i] = sv(s)
		}
	}
	return out
}

// variant returns a list near f: its members shuffled, some recast (a whole
// float for an int, the other case of a string), some duplicated, and
// perhaps one dropped or one drawn afresh.
func variant(rng *rand.Rand, f []storage.Value) []storage.Value {
	g := append([]storage.Value(nil), f...)
	rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	for i, v := range g {
		switch {
		case rng.Intn(4) != 0:
		case v.Type == storage.TInt && !v.Null:
			g[i] = storage.FloatValue(float64(v.I))
		case v.Type == storage.TStr && !v.Null:
			if b := []byte(v.S); len(b) > 0 {
				b[0] ^= 'a' - 'A'
				g[i] = sv(string(b))
			}
		}
	}
	if len(g) > 0 && rng.Intn(3) == 0 {
		g = append(g, g[rng.Intn(len(g))])
	}
	switch rng.Intn(4) {
	case 0:
		if len(g) > 0 {
			g = g[1:]
		}
	case 1:
		g = append(g, proofList(rng, 1)...)
	}
	return g
}

// TestInProofMatchesKeySet checks the IN ⊆ IN proof against the executor's
// membership on seeded generated lists, for each column type and both
// collations: Implies(f, g) holds exactly when every member of f the column
// can hold is KeySet(g).Has, and Equals exactly when both directions hold.
func TestInProofMatchesKeySet(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	sizes := []int{0, 1, 2, 3, 5, 8, 300, 317}
	types := []storage.Type{storage.TInt, storage.TFloat, storage.TStr, storage.TDate, storage.TBool, storage.TNull}
	checked, proven := 0, 0
	for iter := 0; iter < 400; iter++ {
		fv := proofList(rng, sizes[rng.Intn(len(sizes))])
		gv := variant(rng, fv)
		if rng.Intn(4) == 0 {
			gv = proofList(rng, sizes[rng.Intn(len(sizes))])
		}
		f, g := InFilter("x", fv...), InFilter("X", gv...)
		for _, typ := range types {
			for _, coll := range []storage.Collation{storage.CollBinary, storage.CollCI} {
				fg, gf := keyRuleWithin(fv, gv, typ, coll), keyRuleWithin(gv, fv, typ, coll)
				if got := f.Implies(g, typ, coll); got != fg {
					t.Fatalf("%v %v column: Implies(%v, %v) = %v, KeySet says %v", typ, coll, fv, gv, got, fg)
				}
				if got := g.Implies(f, typ, coll); got != gf {
					t.Fatalf("%v %v column: Implies(%v, %v) = %v, KeySet says %v", typ, coll, gv, fv, got, gf)
				}
				if got := f.Equals(g, typ, coll); got != (fg && gf) {
					t.Fatalf("%v %v column: Equals(%v, %v) = %v, KeySet says %v", typ, coll, fv, gv, got, fg && gf)
				}
				checked++
				if fg && len(fv) >= 300 {
					proven++
				}
			}
		}
	}
	if proven == 0 {
		t.Errorf("no long list was proven within another in %d checks: the generator covers only refutations", checked)
	}
}

// TestInProofAllocatesNothing: a warmed proof reuses its key lists, since
// it runs under the cache's shard lock on every render. g is f rotated and
// upper-cased, so the proof builds and merges keys.
func TestInProofAllocatesNothing(t *testing.T) {
	for _, n := range []int{1, 2, 300} {
		fv, gv := make([]storage.Value, n), make([]storage.Value, n)
		for i := range fv {
			fv[i] = sv(fmt.Sprintf("m%d", i))
			gv[(i+1)%n] = sv(fmt.Sprintf("M%d", i))
		}
		f, g := InFilter("market", fv...), InFilter("market", gv...)
		allocs := testing.AllocsPerRun(50, func() {
			if !f.Implies(g, storage.TStr, storage.CollCI) || !f.Equals(g, storage.TStr, storage.CollCI) {
				t.Fatal("a list is not equal to its rotation in the other case")
			}
		})
		if allocs != 0 {
			t.Errorf("%d×%d proof allocated %.1f times", n, n, allocs)
		}
	}
}
