package storage

// Encoding identifies the physical storage format of a column's data.
// Dictionary compression is orthogonal: a dictionary column stores tokens,
// and the token array itself may use any integer encoding. Encodings are
// "invisible outside the storage layer" except where the optimizer exploits
// them (run-length index scans, Sect. 4.3 of the paper).
type Encoding uint8

// Supported encodings.
const (
	EncPlain Encoding = iota // uncompressed fixed-width or string data
	EncRLE                   // run-length encoded integers/tokens
	EncDelta                 // base + per-row delta (sorted/near-sorted ints)
)

// String names the encoding.
func (e Encoding) String() string {
	switch e {
	case EncRLE:
		return "rle"
	case EncDelta:
		return "delta"
	}
	return "plain"
}

// PhysData is the physical storage of one column: either the values
// themselves or, for dictionary columns, the token array. Implementations
// are immutable after construction.
type PhysData interface {
	// Len returns the number of rows.
	Len() int
	// Encoding reports the storage format.
	Encoding() Encoding
	// Scan points dst's data and null mask at rows [from,to): plain data
	// as capped views of the stored arrays, encoded data decoded into new
	// ones. dst must be empty and of the column's physical type.
	Scan(dst *Vector, from, to int)
	// NullAt reports whether row i is null.
	NullAt(i int) bool
}

// IntAccessor is implemented by integer-backed physical data (plain, RLE,
// delta, and token arrays) for point access.
type IntAccessor interface {
	IntAt(i int) int64
}

// ---- plain integers ----

// IntData stores int64 values (also bools, dates, datetimes and dictionary
// tokens) uncompressed.
type IntData struct {
	Vals  []int64
	Nulls []bool // nil when no nulls
}

// Len implements PhysData.
func (d *IntData) Len() int { return len(d.Vals) }

// Encoding implements PhysData.
func (d *IntData) Encoding() Encoding { return EncPlain }

// NullAt implements PhysData.
func (d *IntData) NullAt(i int) bool { return d.Nulls != nil && d.Nulls[i] }

// IntAt implements IntAccessor.
func (d *IntData) IntAt(i int) int64 { return d.Vals[i] }

// Scan implements PhysData.
func (d *IntData) Scan(dst *Vector, from, to int) {
	dst.I, dst.Null = view(d.Vals, from, to), view(d.Nulls, from, to)
}

// ---- plain floats ----

// FloatData stores float64 values uncompressed.
type FloatData struct {
	Vals  []float64
	Nulls []bool
}

// Len implements PhysData.
func (d *FloatData) Len() int { return len(d.Vals) }

// Encoding implements PhysData.
func (d *FloatData) Encoding() Encoding { return EncPlain }

// NullAt implements PhysData.
func (d *FloatData) NullAt(i int) bool { return d.Nulls != nil && d.Nulls[i] }

// Scan implements PhysData.
func (d *FloatData) Scan(dst *Vector, from, to int) {
	dst.F, dst.Null = view(d.Vals, from, to), view(d.Nulls, from, to)
}

// ---- plain strings ----

// StringData stores strings uncompressed ("heap" storage for columns that
// resist dictionary compression).
type StringData struct {
	Vals  []string
	Nulls []bool
}

// Len implements PhysData.
func (d *StringData) Len() int { return len(d.Vals) }

// Encoding implements PhysData.
func (d *StringData) Encoding() Encoding { return EncPlain }

// NullAt implements PhysData.
func (d *StringData) NullAt(i int) bool { return d.Nulls != nil && d.Nulls[i] }

// Scan implements PhysData.
func (d *StringData) Scan(dst *Vector, from, to int) {
	dst.S, dst.Null = view(d.Vals, from, to), view(d.Nulls, from, to)
}

// ---- run-length encoding ----

// Run is one run of an RLE column: Count repetitions of Value starting at
// logical row Start. A null run has Null set.
type Run struct {
	Value int64
	Start int64
	Count int64
	Null  bool
}

// RLEIntData stores integer-backed data as runs. The IndexTable the
// optimizer derives for range-skipping scans (Sect. 4.3) is exactly the
// (value, count, start) triple list held here.
type RLEIntData struct {
	Runs []Run
	N    int64
}

// Len implements PhysData.
func (d *RLEIntData) Len() int { return int(d.N) }

// Encoding implements PhysData.
func (d *RLEIntData) Encoding() Encoding { return EncRLE }

// runIndex locates the run containing logical row i via binary search.
func (d *RLEIntData) runIndex(i int) int {
	lo, hi := 0, len(d.Runs)
	for lo < hi {
		mid := (lo + hi) / 2
		r := &d.Runs[mid]
		switch {
		case int64(i) < r.Start:
			hi = mid
		case int64(i) >= r.Start+r.Count:
			lo = mid + 1
		default:
			return mid
		}
	}
	panic("storage: RLE row out of range")
}

func (d *RLEIntData) run(i int) *Run { return &d.Runs[d.runIndex(i)] }

// NullAt implements PhysData.
func (d *RLEIntData) NullAt(i int) bool { return d.run(i).Null }

// IntAt implements IntAccessor.
func (d *RLEIntData) IntAt(i int) int64 { return d.run(i).Value }

// Scan implements PhysData.
func (d *RLEIntData) Scan(dst *Vector, from, to int) {
	dst.I = make([]int64, to-from)
	if from >= to {
		return
	}
	idx := d.runIndex(from)
	out := 0
	for ri := idx; ri < len(d.Runs) && out < to-from; ri++ {
		run := &d.Runs[ri]
		lo := run.Start
		if int64(from) > lo {
			lo = int64(from)
		}
		hi := run.Start + run.Count
		if int64(to) < hi {
			hi = int64(to)
		}
		for i := lo; i < hi; i++ {
			dst.I[out] = run.Value
			if run.Null {
				if dst.Null == nil {
					dst.Null = make([]bool, to-from)
				}
				dst.Null[out] = true
			}
			out++
		}
	}
}

// ---- delta encoding ----

// DeltaIntData stores integer data as a base plus small per-row deltas,
// a lightweight format for sorted or near-sorted columns such as row ids and
// date columns of time-ordered fact tables.
type DeltaIntData struct {
	Base   int64
	Deltas []int32
	Nulls  []bool
}

// Len implements PhysData.
func (d *DeltaIntData) Len() int { return len(d.Deltas) }

// Encoding implements PhysData.
func (d *DeltaIntData) Encoding() Encoding { return EncDelta }

// NullAt implements PhysData.
func (d *DeltaIntData) NullAt(i int) bool { return d.Nulls != nil && d.Nulls[i] }

// IntAt implements IntAccessor.
func (d *DeltaIntData) IntAt(i int) int64 { return d.Base + int64(d.Deltas[i]) }

// Scan implements PhysData.
func (d *DeltaIntData) Scan(dst *Vector, from, to int) {
	dst.I = make([]int64, to-from)
	for i := from; i < to; i++ {
		dst.I[i-from] = d.Base + int64(d.Deltas[i])
	}
	dst.Null = view(d.Nulls, from, to)
}

// view returns s[from:to] with its capacity cut at to, so that an append
// to the view reallocates instead of writing into the stored array. A nil
// s (no null mask) stays nil.
func view[T any](s []T, from, to int) []T {
	if s == nil {
		return nil
	}
	return s[from:to:to]
}
