package storage

import (
	"fmt"
	"sort"
	"sync"
)

// Dictionary holds the distinct values of a dictionary-compressed string
// column, sorted by the column's collation so that token order equals value
// order — range predicates on the column compare tokens directly, which is
// how "decompression modeled as a join" pushes filters to the dictionary
// side (Sect. 4.1.2).
type Dictionary struct {
	Values []string
	Coll   Collation

	// index maps collation key -> token. It is built on the first Lookup,
	// under indexOnce: concurrent queries share one Dictionary.
	indexOnce sync.Once
	index     map[string]int32
}

// NewDictionary builds a dictionary over the distinct values, sorting them by
// the collation.
func NewDictionary(distinct []string, coll Collation) *Dictionary {
	vals := append([]string(nil), distinct...)
	sort.Slice(vals, func(i, j int) bool { return coll.Compare(vals[i], vals[j]) < 0 })
	return &Dictionary{Values: vals, Coll: coll}
}

// Len returns the number of distinct values.
func (d *Dictionary) Len() int { return len(d.Values) }

// Value returns the string for a token.
func (d *Dictionary) Value(tok int32) string { return d.Values[tok] }

// Lookup returns the token for s under the collation, if present.
func (d *Dictionary) Lookup(s string) (int32, bool) {
	d.indexOnce.Do(d.buildIndex)
	tok, ok := d.index[d.Coll.Key(s)]
	return tok, ok
}

func (d *Dictionary) buildIndex() {
	d.index = make(map[string]int32, len(d.Values))
	for i, v := range d.Values {
		d.index[d.Coll.Key(v)] = int32(i)
	}
}

// LowerBound returns the first token whose value is >= s under the collation
// (len(Values) when none).
func (d *Dictionary) LowerBound(s string) int32 {
	return int32(sort.Search(len(d.Values), func(i int) bool {
		return d.Coll.Compare(d.Values[i], s) >= 0
	}))
}

// UpperBound returns the first token whose value is > s under the collation.
func (d *Dictionary) UpperBound(s string) int32 {
	return int32(sort.Search(len(d.Values), func(i int) bool {
		return d.Coll.Compare(d.Values[i], s) > 0
	}))
}

// ColStats carries the column metadata the optimizer consumes: domain
// bounds, distinct/null counts and physical sortedness.
type ColStats struct {
	Min, Max Value
	Distinct int64
	Nulls    int64
	Sorted   bool // values are non-decreasing in row order
}

// Column is one column of a table: a logical type plus physical data,
// optionally dictionary-compressed.
type Column struct {
	Name string
	Type Type
	Coll Collation
	// Dict is non-nil for dictionary-compressed columns, in which case Data
	// holds int64 tokens.
	Dict  *Dictionary
	Data  PhysData
	Stats ColStats
}

// Len returns the row count.
func (c *Column) Len() int { return c.Data.Len() }

// Encoding reports the physical encoding of the column data (token array
// for dictionary columns).
func (c *Column) Encoding() Encoding { return c.Data.Encoding() }

// ScanRange returns rows [from,to) as a vector. Plain data comes back as a
// view of the stored arrays, capped at to, so the vector is read-only (see
// Vector); run-length and delta data are decoded. Dictionary columns yield
// a token vector carrying the dictionary — values stay compressed until a
// consumer needs the strings (late materialization).
func (c *Column) ScanRange(from, to int) *Vector {
	v := &Vector{Type: c.Type, Dict: c.Dict}
	c.Data.Scan(v, from, to)
	return v
}

// Value returns row i as a scalar (slow path).
func (c *Column) Value(i int) Value {
	if c.Data.NullAt(i) {
		return NullValue(c.Type)
	}
	if c.Dict != nil {
		tok := c.Data.(IntAccessor).IntAt(i)
		return StrValue(c.Dict.Value(int32(tok)))
	}
	switch d := c.Data.(type) {
	case *FloatData:
		return Value{Type: TFloat, F: d.Vals[i]}
	case *StringData:
		return Value{Type: TStr, S: d.Vals[i]}
	case IntAccessor:
		return Value{Type: c.Type, I: d.IntAt(i)}
	}
	panic("storage: unreachable column data type")
}

// RLERuns exposes the run list when the column's physical data is
// run-length encoded; the optimizer turns it into an IndexTable for
// range-skipping scans.
func (c *Column) RLERuns() ([]Run, bool) {
	if d, ok := c.Data.(*RLEIntData); ok {
		return d.Runs, true
	}
	return nil, false
}

// BuildOptions tunes column construction.
type BuildOptions struct {
	// ForceEncoding pins the physical encoding instead of letting the
	// builder choose. EncPlain is still chosen when the forced encoding is
	// inapplicable (e.g. delta over strings).
	//
	//vizlint:allow unused -- tests and benchmarks build reference columns in each encoding
	ForceEncoding Encoding
	HasForce      bool //vizlint:allow unused -- set with ForceEncoding
	// NoDictionary disables dictionary compression for string columns.
	//
	//vizlint:allow unused -- tests and benchmarks build plain string columns as references
	NoDictionary bool
}

// BuildColumn constructs a column from scalar values, choosing dictionary
// compression and a physical encoding from the data shape, and computing
// statistics.
func BuildColumn(name string, t Type, coll Collation, vals []Value, opt BuildOptions) (*Column, error) {
	col := &Column{Name: name, Type: t, Coll: coll}
	stats := ColStats{Sorted: true}
	var prev Value
	first := true
	distinct := make(map[string]struct{})
	for _, v := range vals {
		if v.Null {
			stats.Nulls++
			continue
		}
		if v.Type != t && !(v.Type.IntBacked() && t.IntBacked()) {
			if pt, err := Promote(v.Type, t); err != nil || pt != t {
				return nil, fmt.Errorf("storage: column %s: value type %s does not fit %s", name, v.Type, t)
			}
		}
		if first {
			stats.Min, stats.Max = v, v
			first = false
		} else {
			if Compare(v, stats.Min, coll) < 0 {
				stats.Min = v
			}
			if Compare(v, stats.Max, coll) > 0 {
				stats.Max = v
			}
			if Compare(v, prev, coll) < 0 {
				stats.Sorted = false
			}
		}
		prev = v
		distinct[distinctKey(v, coll)] = struct{}{}
	}
	stats.Distinct = int64(len(distinct))
	col.Stats = stats

	switch {
	case t == TStr:
		buildString(col, vals, opt)
	case t == TFloat:
		buildFloat(col, vals)
	default:
		buildInt(col, vals, opt, stats.Sorted)
	}
	return col, nil
}

func distinctKey(v Value, coll Collation) string {
	if v.Type == TStr {
		return "s" + coll.Key(v.S)
	}
	if v.Type == TFloat {
		return fmt.Sprintf("f%g", v.F)
	}
	return fmt.Sprintf("i%d", v.I)
}

func buildString(col *Column, vals []Value, opt BuildOptions) {
	n := len(vals)
	// Dictionary-compress unless the distinct ratio makes it pointless.
	useDict := !opt.NoDictionary && (col.Stats.Distinct <= int64(n)/2 || n < 64)
	if opt.HasForce && opt.ForceEncoding == EncPlain && opt.NoDictionary {
		useDict = false
	}
	if !useDict {
		d := &StringData{Vals: make([]string, n)}
		for i, v := range vals {
			if v.Null {
				if d.Nulls == nil {
					d.Nulls = make([]bool, n)
				}
				d.Nulls[i] = true
				continue
			}
			d.Vals[i] = v.S
		}
		col.Data = d
		return
	}
	seen := make(map[string]string, col.Stats.Distinct)
	var distinct []string
	for _, v := range vals {
		if v.Null {
			continue
		}
		k := col.Coll.Key(v.S)
		if _, ok := seen[k]; !ok {
			seen[k] = v.S
			distinct = append(distinct, v.S)
		}
	}
	dict := NewDictionary(dedupeByKey(distinct, col.Coll), col.Coll)
	col.Dict = dict
	toks := make([]Value, n)
	for i, v := range vals {
		if v.Null {
			toks[i] = NullValue(TInt)
			continue
		}
		tok, _ := dict.Lookup(v.S)
		toks[i] = IntValue(int64(tok))
	}
	// Token order follows value order, so sortedness of tokens equals
	// sortedness of the values under the collation.
	buildInt(col, toks, opt, col.Stats.Sorted)
}

func dedupeByKey(vals []string, coll Collation) []string {
	seen := make(map[string]struct{}, len(vals))
	out := vals[:0]
	for _, v := range vals {
		k := coll.Key(v)
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, v)
	}
	return out
}

func buildFloat(col *Column, vals []Value) {
	n := len(vals)
	d := &FloatData{Vals: make([]float64, n)}
	for i, v := range vals {
		if v.Null {
			if d.Nulls == nil {
				d.Nulls = make([]bool, n)
			}
			d.Nulls[i] = true
			continue
		}
		d.Vals[i] = v.AsFloat()
	}
	col.Data = d
}

func buildInt(col *Column, vals []Value, opt BuildOptions, sorted bool) {
	n := len(vals)
	ints := make([]int64, n)
	var nulls []bool
	for i, v := range vals {
		if v.Null {
			if nulls == nil {
				nulls = make([]bool, n)
			}
			nulls[i] = true
			continue
		}
		ints[i] = v.I
	}

	enc := chooseIntEncoding(ints, nulls, sorted)
	if opt.HasForce {
		enc = opt.ForceEncoding
	}
	switch enc {
	case EncRLE:
		col.Data = buildRLE(ints, nulls)
	case EncDelta:
		if d, ok := buildDelta(ints, nulls); ok {
			col.Data = d
			return
		}
		col.Data = &IntData{Vals: ints, Nulls: nulls}
	default:
		col.Data = &IntData{Vals: ints, Nulls: nulls}
	}
}

func chooseIntEncoding(ints []int64, nulls []bool, sorted bool) Encoding {
	n := len(ints)
	if n == 0 {
		return EncPlain
	}
	runs := countRuns(ints, nulls)
	if runs*4 <= n {
		return EncRLE
	}
	if sorted && nulls == nil {
		span := ints[n-1] - ints[0]
		if span >= -1<<31 && span < 1<<31 {
			return EncDelta
		}
	}
	return EncPlain
}

func countRuns(ints []int64, nulls []bool) int {
	if len(ints) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(ints); i++ {
		if ints[i] != ints[i-1] || (nulls != nil && nulls[i] != nulls[i-1]) {
			runs++
		}
	}
	return runs
}

func buildRLE(ints []int64, nulls []bool) *RLEIntData {
	d := &RLEIntData{N: int64(len(ints))}
	for i := 0; i < len(ints); {
		j := i + 1
		isNull := nulls != nil && nulls[i]
		for j < len(ints) && ints[j] == ints[i] && (nulls == nil || nulls[j] == isNull) {
			j++
		}
		d.Runs = append(d.Runs, Run{Value: ints[i], Start: int64(i), Count: int64(j - i), Null: isNull})
		i = j
	}
	return d
}

func buildDelta(ints []int64, nulls []bool) (*DeltaIntData, bool) {
	if len(ints) == 0 {
		return &DeltaIntData{}, true
	}
	base := ints[0]
	deltas := make([]int32, len(ints))
	for i, v := range ints {
		d := v - base
		if d < -1<<31 || d >= 1<<31 {
			return nil, false
		}
		deltas[i] = int32(d)
	}
	return &DeltaIntData{Base: base, Deltas: deltas, Nulls: nulls}, true
}
