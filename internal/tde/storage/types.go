// Package storage implements the Tableau-Data-Engine-style storage layer:
// typed columns with null support, dictionary compression, run-length and
// delta encodings, column-level collations, the schema/table/column
// namespace, and the single-file database format.
//
// The layer mirrors the description in Sect. 4.1.1 of "On Improving User
// Response Times in Tableau" (SIGMOD 2015): each database holds schemas,
// each schema holds tables, each table holds columns; metadata is read
// through the reserved SYS schema, which the engine derives per query;
// dictionary compression is visible to upper layers while run-length/delta
// encodings are a storage format.
package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// Type identifies the logical type of a column or value.
type Type uint8

// Logical types supported by the engine.
const (
	TNull Type = iota
	TBool
	TInt
	TFloat
	TStr
	TDate     // days since 1970-01-01
	TDateTime // seconds since 1970-01-01 UTC
)

// String returns the TQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "null"
	case TBool:
		return "bool"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TStr:
		return "str"
	case TDate:
		return "date"
	case TDateTime:
		return "datetime"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// ParseType converts a TQL type name into a Type.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(s) {
	case "bool", "boolean":
		return TBool, nil
	case "int", "integer", "bigint":
		return TInt, nil
	case "float", "double", "real":
		return TFloat, nil
	case "str", "string", "text", "varchar":
		return TStr, nil
	case "date":
		return TDate, nil
	case "datetime", "timestamp":
		return TDateTime, nil
	}
	return TNull, fmt.Errorf("storage: unknown type %q", s)
}

// Numeric reports whether values of the type support arithmetic.
func (t Type) Numeric() bool { return t == TInt || t == TFloat || t == TBool }

// IntBacked reports whether the physical representation is an int64.
func (t Type) IntBacked() bool {
	switch t {
	case TBool, TInt, TDate, TDateTime:
		return true
	}
	return false
}

// Promote returns the common type two operand types are widened to, following
// the engine's promotion lattice (bool < int < float; date/datetime promote
// to themselves; anything mixed with null keeps the non-null type).
func Promote(a, b Type) (Type, error) {
	if a == b {
		return a, nil
	}
	if a == TNull {
		return b, nil
	}
	if b == TNull {
		return a, nil
	}
	if a.Numeric() && b.Numeric() {
		if a == TFloat || b == TFloat {
			return TFloat, nil
		}
		return TInt, nil
	}
	if (a == TDate && b == TDateTime) || (a == TDateTime && b == TDate) {
		return TDateTime, nil
	}
	return TNull, fmt.Errorf("storage: no common type for %s and %s", a, b)
}

// Value is a single scalar used for literals, keys and slow-path access.
// The zero Value is typed null.
type Value struct {
	Type Type
	Null bool
	I    int64   // bool (0/1), int, date, datetime payload
	F    float64 // float payload
	S    string  // string payload
}

// NullValue returns a typed null.
func NullValue(t Type) Value { return Value{Type: t, Null: true} }

// IntValue wraps an int64.
func IntValue(i int64) Value { return Value{Type: TInt, I: i} }

// FloatValue wraps a float64.
func FloatValue(f float64) Value { return Value{Type: TFloat, F: f} }

// StrValue wraps a string.
func StrValue(s string) Value { return Value{Type: TStr, S: s} }

// BoolValue wraps a bool.
func BoolValue(b bool) Value {
	v := Value{Type: TBool}
	if b {
		v.I = 1
	}
	return v
}

// DateValue wraps a civil date as days since the Unix epoch.
func DateValue(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{Type: TDate, I: t.Unix() / 86400}
}

// DateTimeValue wraps a time as seconds since the Unix epoch.
func DateTimeValue(t time.Time) Value { return Value{Type: TDateTime, I: t.Unix()} }

// Bool reports the truth value; null is false.
func (v Value) Bool() bool { return !v.Null && v.I != 0 }

// AsFloat widens any numeric payload to float64.
func (v Value) AsFloat() float64 {
	if v.Type == TFloat {
		return v.F
	}
	return float64(v.I)
}

// String renders the value for display and for literal SQL/TQL generation.
func (v Value) String() string {
	if v.Null {
		return "null"
	}
	switch v.Type {
	case TBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case TInt:
		return fmt.Sprintf("%d", v.I)
	case TFloat:
		return fmt.Sprintf("%g", v.F)
	case TStr:
		return v.S
	case TDate:
		return time.Unix(v.I*86400, 0).UTC().Format("2006-01-02")
	case TDateTime:
		return time.Unix(v.I, 0).UTC().Format("2006-01-02 15:04:05")
	}
	return "null"
}

// Compare orders two values of the same (or promoted-compatible) type.
// Nulls sort first. Strings use the supplied collation. Numbers compare as
// cmp.Compare does, widened to float64 when either is a float: a NaN equals
// a NaN and sorts below every number, and -0 equals +0.
func Compare(a, b Value, coll Collation) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	if a.Type == TStr || b.Type == TStr {
		return coll.Compare(a.S, b.S)
	}
	if a.Type == TFloat || b.Type == TFloat {
		return cmp.Compare(a.AsFloat(), b.AsFloat())
	}
	return cmp.Compare(a.I, b.I)
}

// Equal reports value equality under the collation.
func Equal(a, b Value, coll Collation) bool {
	if a.Null || b.Null {
		return a.Null && b.Null
	}
	return Compare(a, b, coll) == 0
}

// Collation identifies a column-level string collation. The TDE supports
// column-level collated strings so Extract behaviour matches live databases.
type Collation uint8

// Supported collations.
const (
	CollBinary Collation = iota // byte-wise comparison
	CollCI                      // ASCII case-insensitive
)

// String names the collation.
func (c Collation) String() string {
	if c == CollCI {
		return "ci"
	}
	return "binary"
}

// ParseCollation converts a collation name into a Collation.
func ParseCollation(s string) (Collation, error) {
	switch strings.ToLower(s) {
	case "", "binary", "bin":
		return CollBinary, nil
	case "ci", "nocase", "case_insensitive":
		return CollCI, nil
	}
	return CollBinary, fmt.Errorf("storage: unknown collation %q", s)
}

// Compare orders two strings under the collation.
func (c Collation) Compare(a, b string) int {
	if c == CollCI {
		return strings.Compare(foldASCII(a), foldASCII(b))
	}
	return strings.Compare(a, b)
}

// Key returns the canonical comparison key for a string: two strings compare
// equal under the collation iff their keys are byte-equal. Dictionaries
// index their values by it; AppendKey folds the same way without a copy.
func (c Collation) Key(s string) string {
	if c == CollCI {
		return foldASCII(s)
	}
	return s
}

// AppendKey appends the canonical key of v under coll to buf: two values
// append equal bytes iff Equal calls them equal, so a sequence of keys is
// itself a key. It is the one encoding behind the executor's hash
// operators and the cache's roll-ups, and it never allocates beyond growing
// buf. Nulls are one tag byte. Int-backed types share a tag, so a date and
// an int with the same payload group together. Strings are length-prefixed
// and CI strings are folded into buf as they are copied. Floats use the
// order-preserving IEEE-754 bits, with -0 and +0 one key and every NaN one
// key that sorts below -Inf, as Compare orders them.
func AppendKey(buf []byte, v Value, coll Collation) []byte {
	if v.Null {
		return append(buf, 0)
	}
	switch v.Type {
	case TStr:
		buf = append(buf, 3)
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		if coll != CollCI {
			return append(buf, v.S...)
		}
		for i := 0; i < len(v.S); i++ {
			ch := v.S[i]
			if ch >= 'A' && ch <= 'Z' {
				ch += 'a' - 'A'
			}
			buf = append(buf, ch)
		}
		return buf
	case TFloat:
		// Flip the sign bit of non-negatives and complement negatives so
		// the big-endian bytes sort like the floats. No other float maps
		// to 0, the NaN key: it would be the complement of a NaN's bits.
		u := math.Float64bits(v.F)
		switch {
		case math.IsNaN(v.F):
			u = 0
		case v.F == 0:
			u = 1 << 63
		case u&(1<<63) != 0:
			u = ^u
		default:
			u |= 1 << 63
		}
		return binary.BigEndian.AppendUint64(append(buf, 2), u)
	default:
		return binary.LittleEndian.AppendUint64(append(buf, 1), uint64(v.I))
	}
}

// ColumnValue returns v as a value of a column of type t: a value of
// another numeric type is coerced to t. It reports false when no value of
// the column can equal v: a fractional or out-of-range float for an
// int-backed column, and a string for a non-string column or the reverse. A
// column of unknown type (TNull) takes every value as it is. With AppendKey
// under the column's collation it is the one membership rule of IN: the
// executor's and the cache's residual filter's (KeySet), and the cache's
// subsumption proof's (KeyList).
func ColumnValue(t Type, v Value) (Value, bool) {
	switch {
	case v.Null || v.Type == t || t == TNull:
		return v, true
	case (v.Type == TStr) != (t == TStr):
		return v, false
	case t == TFloat:
		return FloatValue(v.AsFloat()), true
	case v.Type == TFloat:
		if v.F != math.Trunc(v.F) || v.F < math.MinInt64 || v.F >= math.MaxInt64 {
			return v, false
		}
		return Value{Type: t, I: int64(v.F)}, true
	}
	return v, true
}

// KeySet is a set of values matched against one column: Index(v) answers
// as Equal would against each member, except that a value the column
// cannot hold (ColumnValue) matches nothing, in one AppendKey and one map
// probe. It reuses one key buffer: not for concurrent use.
type KeySet struct {
	typ  Type
	coll Collation
	pos  map[string]int
	buf  []byte
}

// NewKeySet builds the set of vals for a column of type t under coll.
func NewKeySet(t Type, coll Collation, vals []Value) *KeySet {
	s := &KeySet{typ: t, coll: coll, pos: make(map[string]int, len(vals))}
	for i := len(vals) - 1; i >= 0; i-- { // backwards: the first equal member wins
		if s.key(vals[i]) {
			s.pos[string(s.buf)] = i
		}
	}
	return s
}

// Index returns the position in vals of the first member equal to v, or -1.
func (s *KeySet) Index(v Value) int {
	if !s.key(v) {
		return -1
	}
	if i, ok := s.pos[string(s.buf)]; ok {
		return i
	}
	return -1
}

// Has reports whether some member equals v.
func (s *KeySet) Has(v Value) bool { return s.Index(v) >= 0 }

// key leaves in s.buf the column key of v; false when no value of the
// column can equal v.
func (s *KeySet) key(v Value) bool {
	if !v.Null && v.Type != s.typ { // ColumnValue's own test, kept off the per-row call
		var ok bool
		if v, ok = ColumnValue(s.typ, v); !ok {
			return false
		}
	}
	s.buf = AppendKey(s.buf[:0], v, s.coll)
	return true
}

// KeyList is the sorted, distinct column keys of a list of values: the form
// in which two IN lists are compared, in one merge. Build reuses its
// buffers, so a warmed KeyList allocates nothing; not for concurrent use.
type KeyList struct {
	buf  []byte
	ends []int
	keys [][]byte
}

// Build replaces l's keys with those of vals as values of a column of type t
// under coll (ColumnValue, then AppendKey). A value the column cannot hold
// is left out: as an IN member it selects no rows.
func (l *KeyList) Build(t Type, coll Collation, vals []Value) {
	l.buf, l.ends, l.keys = l.buf[:0], l.ends[:0], l.keys[:0]
	for _, v := range vals {
		if v, ok := ColumnValue(t, v); ok {
			l.buf = AppendKey(l.buf, v, coll)
			l.ends = append(l.ends, len(l.buf))
		}
	}
	start := 0
	for _, end := range l.ends {
		l.keys = append(l.keys, l.buf[start:end])
		start = end
	}
	slices.SortFunc(l.keys, bytes.Compare)
	l.keys = slices.CompactFunc(l.keys, bytes.Equal)
}

// Within reports whether every key of l is one of o's, and whether every
// key of o is one of l's.
func (l *KeyList) Within(o *KeyList) (lInO, oInL bool) {
	lInO, oInL = len(l.keys) <= len(o.keys), len(o.keys) <= len(l.keys)
	i, j := 0, 0
	for (lInO || oInL) && i < len(l.keys) && j < len(o.keys) {
		switch c := bytes.Compare(l.keys[i], o.keys[j]); {
		case c < 0:
			lInO, i = false, i+1
		case c > 0:
			oInL, j = false, j+1
		default:
			i, j = i+1, j+1
		}
	}
	return lInO && i == len(l.keys), oInL && j == len(o.keys)
}

func foldASCII(s string) string {
	// Fast path: already lower-case.
	upper := false
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			upper = true
			break
		}
	}
	if !upper {
		return s
	}
	b := []byte(s)
	for i, ch := range b {
		if ch >= 'A' && ch <= 'Z' {
			b[i] = ch + 'a' - 'A'
		}
	}
	return string(b)
}
