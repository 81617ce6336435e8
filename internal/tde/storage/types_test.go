package storage

import (
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
		BoolValue(true), NullValue(TInt), FloatValue(math.Inf(1)), FloatValue(1e300)}
	columns := map[Type][]Value{
		TInt:   {IntValue(0), IntValue(1), IntValue(2), IntValue(3), IntValue(5), NullValue(TInt)},
		TFloat: {FloatValue(0), nz, FloatValue(1), FloatValue(2), FloatValue(2.5), FloatValue(5), FloatValue(math.Inf(1))},
		TDate:  {{Type: TDate, I: 1}, {Type: TDate, I: 2}, {Type: TDate, I: 5}, NullValue(TDate)},
		TBool:  {BoolValue(false), BoolValue(true)},
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
