package storage

import (
	"bytes"
	"cmp"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TNull: "null", TBool: "bool", TInt: "int", TFloat: "float",
		TStr: "str", TDate: "date", TDateTime: "datetime",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	for name, want := range map[string]Type{
		"int": TInt, "INTEGER": TInt, "float": TFloat, "double": TFloat,
		"str": TStr, "varchar": TStr, "bool": TBool, "date": TDate,
		"datetime": TDateTime, "timestamp": TDateTime,
	} {
		got, err := ParseType(name)
		if err != nil || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseType("blob"); err == nil {
		t.Error("ParseType(blob) should fail")
	}
}

func TestPromote(t *testing.T) {
	cases := []struct {
		a, b, want Type
		ok         bool
	}{
		{TInt, TInt, TInt, true},
		{TInt, TFloat, TFloat, true},
		{TBool, TInt, TInt, true},
		{TNull, TStr, TStr, true},
		{TDate, TDateTime, TDateTime, true},
		{TStr, TInt, TNull, false},
	}
	for _, c := range cases {
		got, err := Promote(c.a, c.b)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("Promote(%v,%v) = %v, %v; want %v", c.a, c.b, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("Promote(%v,%v) should fail", c.a, c.b)
		}
	}
}

func TestValueCompare(t *testing.T) {
	if Compare(IntValue(1), IntValue(2), CollBinary) != -1 {
		t.Error("1 < 2 expected")
	}
	if Compare(FloatValue(2.5), IntValue(2), CollBinary) != 1 {
		t.Error("2.5 > 2 expected")
	}
	if Compare(NullValue(TInt), IntValue(0), CollBinary) != -1 {
		t.Error("null sorts first")
	}
	if Compare(StrValue("A"), StrValue("a"), CollCI) != 0 {
		t.Error("CI collation equates A and a")
	}
	if Compare(StrValue("A"), StrValue("a"), CollBinary) == 0 {
		t.Error("binary collation separates A and a")
	}
}

// TestFloatOrder: nulls first, then floats as cmp.Compare orders them, with
// one key per NaN; Compare, Equal and AppendKey's byte order agree on every
// pair.
func TestFloatOrder(t *testing.T) {
	negNaN := math.Float64frombits(0xfff8_0000_0000_0001)
	ascending := [][]Value{
		{NullValue(TFloat), NullValue(TInt)},
		{FloatValue(math.NaN()), FloatValue(negNaN), FloatValue(math.Float64frombits(0x7ff0_0000_0000_0001))},
		{FloatValue(math.Inf(-1))},
		{FloatValue(-1e300)},
		{IntValue(math.MinInt64), FloatValue(math.MinInt64)},
		{FloatValue(-2.5)},
		{FloatValue(math.Copysign(0, -1)), FloatValue(0), IntValue(0)},
		{FloatValue(math.SmallestNonzeroFloat64)},
		{FloatValue(2), IntValue(2)},
		{FloatValue(math.Inf(1))},
	}
	for i, ri := range ascending {
		for j, rj := range ascending {
			for _, a := range ri {
				for _, b := range rj {
					want := cmp.Compare(i, j)
					if got := Compare(a, b, CollBinary); got != want {
						t.Errorf("Compare(%v, %v) = %d, want %d", a, b, got, want)
					}
					if Equal(a, b, CollBinary) != (want == 0) {
						t.Errorf("Equal(%v, %v) = %v", a, b, want != 0)
					}
					if a.Type != TFloat || b.Type != TFloat {
						continue
					}
					if got := bytes.Compare(AppendKey(nil, a, CollBinary), AppendKey(nil, b, CollBinary)); got != want {
						t.Errorf("AppendKey(%v) vs AppendKey(%v) = %d, want %d", a, b, got, want)
					}
				}
			}
		}
	}
}

func TestValueString(t *testing.T) {
	if got := DateValue(2015, time.May, 31).String(); got != "2015-05-31" {
		t.Errorf("date = %q", got)
	}
	if got := BoolValue(true).String(); got != "true" {
		t.Errorf("bool = %q", got)
	}
	if got := NullValue(TStr).String(); got != "null" {
		t.Errorf("null = %q", got)
	}
	dt := DateTimeValue(time.Date(2015, 5, 31, 12, 30, 0, 0, time.UTC))
	if got := dt.String(); got != "2015-05-31 12:30:00" {
		t.Errorf("datetime = %q", got)
	}
}

func TestCollationKey(t *testing.T) {
	if CollCI.Key("HeLLo") != "hello" {
		t.Error("CI key folds case")
	}
	if CollBinary.Key("HeLLo") != "HeLLo" {
		t.Error("binary key is identity")
	}
	// Property: equal keys iff Compare == 0.
	f := func(a, b string) bool {
		return (CollCI.Key(a) == CollCI.Key(b)) == (CollCI.Compare(a, b) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseCollation(t *testing.T) {
	if c, err := ParseCollation("ci"); err != nil || c != CollCI {
		t.Errorf("ci: %v %v", c, err)
	}
	if c, err := ParseCollation(""); err != nil || c != CollBinary {
		t.Errorf("default: %v %v", c, err)
	}
	if _, err := ParseCollation("klingon"); err == nil {
		t.Error("unknown collation should fail")
	}
}

func TestAppendKeyEqualIffEqual(t *testing.T) {
	key := func(coll Collation, vs ...Value) string {
		var buf []byte
		for _, v := range vs {
			buf = AppendKey(buf, v, coll)
		}
		return string(buf)
	}
	same := []struct {
		coll Collation
		a, b []Value
	}{
		{CollBinary, []Value{FloatValue(0)}, []Value{FloatValue(math.Copysign(0, -1))}},
		{CollCI, []Value{StrValue("Abc")}, []Value{StrValue("aBC")}},
		{CollBinary, []Value{IntValue(7)}, []Value{{Type: TDate, I: 7}}},
		{CollBinary, []Value{NullValue(TStr)}, []Value{NullValue(TInt)}},
		{CollBinary, []Value{FloatValue(math.NaN())}, []Value{FloatValue(-math.NaN())}},
	}
	for _, c := range same {
		if key(c.coll, c.a...) != key(c.coll, c.b...) {
			t.Errorf("%v and %v must share a key under %v", c.a, c.b, c.coll)
		}
	}
	differ := []struct {
		coll Collation
		a, b []Value
	}{
		{CollBinary, []Value{StrValue("Abc")}, []Value{StrValue("abc")}},
		{CollCI, []Value{StrValue("a\x03b"), StrValue("c")}, []Value{StrValue("a"), StrValue("b\x03c")}},
		{CollBinary, []Value{StrValue("a\x00"), StrValue("")}, []Value{StrValue("a"), StrValue("\x00")}},
		{CollBinary, []Value{StrValue("")}, []Value{NullValue(TStr)}},
		{CollBinary, []Value{FloatValue(1)}, []Value{IntValue(1)}},
		{CollBinary, []Value{FloatValue(1)}, []Value{FloatValue(math.Nextafter(1, 2))}},
	}
	for _, c := range differ {
		if key(c.coll, c.a...) == key(c.coll, c.b...) {
			t.Errorf("%q and %q must not share a key under %v", c.a, c.b, c.coll)
		}
	}
}

func TestAppendKeyDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 64)
	v := StrValue("Hello, World")
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendKey(buf[:0], v, CollCI)
		buf = AppendKey(buf, FloatValue(-2.5), CollBinary)
		buf = AppendKey(buf, IntValue(42), CollBinary)
	})
	if allocs != 0 {
		t.Errorf("AppendKey allocated %.0f times per call", allocs)
	}
	if got := string(buf[2:14]); got != "hello, world" {
		t.Errorf("CI string folded to %q", got)
	}
}

// TestKeySetAnswersLikeEqual: for values of the column's type, a KeySet
// finds a member exactly when Equal finds one, whatever numeric type the
// members were given in.
func TestKeySetAnswersLikeEqual(t *testing.T) {
	nz := FloatValue(math.Copysign(0, -1))
	members := []Value{IntValue(1), FloatValue(2), FloatValue(2.5), nz, {Type: TDate, I: 5},
		BoolValue(true), NullValue(TInt), FloatValue(math.Inf(1)), FloatValue(1e300), FloatValue(math.NaN())}
	columns := map[Type][]Value{
		TInt: {IntValue(0), IntValue(1), IntValue(2), IntValue(3), IntValue(5), NullValue(TInt)},
		TFloat: {FloatValue(0), nz, FloatValue(1), FloatValue(2), FloatValue(2.5), FloatValue(5), FloatValue(math.Inf(1)),
			FloatValue(math.NaN()), FloatValue(math.Float64frombits(0xfff8_0000_0000_0001)), FloatValue(math.Inf(-1))},
		TDate: {{Type: TDate, I: 1}, {Type: TDate, I: 2}, {Type: TDate, I: 5}, NullValue(TDate)},
		TBool: {BoolValue(false), BoolValue(true)},
	}
	for typ, col := range columns {
		set := NewKeySet(typ, CollBinary, members)
		for _, v := range col {
			want := -1
			for i, m := range members {
				if Equal(m, v, CollBinary) {
					want = i
					break
				}
			}
			if got := set.Index(v); got != want {
				t.Errorf("%v column: Index(%v) = %d, want %d", typ, v, got, want)
			}
		}
	}
	ci := NewKeySet(TStr, CollCI, []Value{StrValue("LAX"), StrValue("sfo"), NullValue(TStr), IntValue(1)})
	for v, want := range map[Value]bool{
		StrValue("lax"): true, StrValue("SFO"): true, StrValue("sf"): false, NullValue(TStr): true,
		StrValue(""): false,
	} {
		if ci.Has(v) != want {
			t.Errorf("CI set: Has(%q) = %v, want %v", v.S, !want, want)
		}
	}
	if NewKeySet(TStr, CollBinary, []Value{StrValue("LAX")}).Has(StrValue("lax")) {
		t.Error("binary set matched across case")
	}
}

// TestKeyListWithin: two lists compare as sets of column keys, duplicates
// and member order aside, and a member the column cannot hold is left out.
func TestKeyListWithin(t *testing.T) {
	s := func(vs ...string) []Value {
		out := make([]Value, len(vs))
		for i, v := range vs {
			out[i] = StrValue(v)
		}
		return out
	}
	cases := []struct {
		name       string
		typ        Type
		coll       Collation
		a, b       []Value
		aInB, bInA bool
	}{
		{"equal, reordered, duplicated", TStr, CollBinary, s("x", "y", "x"), s("y", "x"), true, true},
		{"proper subset", TStr, CollBinary, s("x"), s("y", "x"), true, false},
		{"disjoint", TStr, CollBinary, s("x", "z"), s("y", "w"), false, false},
		{"overlap", TStr, CollBinary, s("a", "b"), s("b", "c"), false, false},
		{"case folds under ci", TStr, CollCI, s("LAX", "sfo"), s("lax", "SFO"), true, true},
		{"case differs under binary", TStr, CollBinary, s("LAX"), s("lax"), false, false},
		{"empty within anything", TStr, CollBinary, nil, s("x"), true, false},
		{"whole float is the int", TInt, CollBinary, []Value{IntValue(2), FloatValue(3)}, []Value{FloatValue(2), IntValue(3)}, true, true},
		{"fractional float and string left out", TInt, CollBinary, []Value{FloatValue(2.5), StrValue("2"), IntValue(1)}, []Value{IntValue(1)}, true, true},
		{"±0 is one key", TFloat, CollBinary, []Value{FloatValue(math.Copysign(0, -1))}, []Value{IntValue(0)}, true, true},
		{"null is a key of its own", TInt, CollBinary, []Value{NullValue(TInt), IntValue(0)}, []Value{IntValue(0)}, false, true},
		{"unknown type keeps every value", TNull, CollBinary, []Value{StrValue("1")}, []Value{IntValue(1)}, false, false},
	}
	var a, b KeyList
	for _, c := range cases {
		a.Build(c.typ, c.coll, c.a)
		b.Build(c.typ, c.coll, c.b)
		if aInB, bInA := a.Within(&b); aInB != c.aInB || bInA != c.bInA {
			t.Errorf("%s: Within = %v, %v; want %v, %v", c.name, aInB, bInA, c.aInB, c.bInA)
		}
	}
}

// TestColumnValue: a member is coerced to the column's type, or refused
// when no value of the column can equal it.
func TestColumnValue(t *testing.T) {
	for _, c := range []struct {
		typ  Type
		in   Value
		want Value
		ok   bool
	}{
		{TInt, FloatValue(3), IntValue(3), true},
		{TDate, FloatValue(3), Value{Type: TDate, I: 3}, true},
		{TInt, FloatValue(3.5), FloatValue(3.5), false},
		{TInt, FloatValue(math.NaN()), FloatValue(math.NaN()), false},
		{TFloat, FloatValue(math.NaN()), FloatValue(math.NaN()), true},
		{TInt, FloatValue(1e19), FloatValue(1e19), false},
		{TFloat, IntValue(2), FloatValue(2), true},
		{TStr, IntValue(2), IntValue(2), false},
		{TInt, StrValue("2"), StrValue("2"), false},
		{TStr, NullValue(TInt), NullValue(TInt), true},
		{TNull, StrValue("x"), StrValue("x"), true},
		{TInt, Value{Type: TDate, I: 4}, Value{Type: TDate, I: 4}, true},
	} {
		got, ok := ColumnValue(c.typ, c.in)
		if ok != c.ok || ok && (got.Type != c.want.Type || !Equal(got, c.want, CollBinary)) {
			t.Errorf("ColumnValue(%v, %#v) = %#v, %v; want %#v, %v", c.typ, c.in, got, ok, c.want, c.ok)
		}
	}
}
