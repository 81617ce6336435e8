package storage

import "fmt"

// BatchSize is the number of rows materialized per execution chunk.
const BatchSize = 1024

// Vector is a fixed-type column chunk used throughout the executor. Exactly
// one of I/F/S backs the data depending on Type (bool/int/date/datetime use
// I). Null is nil when the chunk contains no nulls.
//
// A vector an operator has emitted is read-only. Scans hand out views of
// the stored columns, and filters, limits and shared results pass their
// input vectors on, so a write through one (Set, SetNull, an element store,
// a write to Null) could land in the extract or in another consumer's
// rows. Code that changes values writes to a vector it allocated: NewVector,
// Gather, Decode, or a copy. Views are capped at their length, so an append
// reallocates.
type Vector struct {
	Type Type
	I    []int64
	F    []float64
	S    []string
	Null []bool
	// Dict is non-nil for late-materialized dictionary string vectors:
	// Type is TStr but I holds tokens into Dict. Consumers that need the
	// strings call Decode.
	Dict *Dictionary
}

// NewVector allocates a vector of the given logical type and length.
func NewVector(t Type, n int) *Vector {
	v := &Vector{Type: t}
	switch {
	case t == TFloat:
		v.F = make([]float64, n)
	case t == TStr:
		v.S = make([]string, n)
	default:
		v.I = make([]int64, n)
	}
	return v
}

// Len returns the number of rows in the vector.
func (v *Vector) Len() int {
	switch {
	case v.Type == TFloat:
		return len(v.F)
	case v.Type == TStr && v.Dict == nil:
		return len(v.S)
	default:
		return len(v.I)
	}
}

// Decode materializes a dictionary token vector into plain strings. It
// returns v unchanged when the vector is not dictionary-backed.
func (v *Vector) Decode() *Vector {
	if v.Dict == nil {
		return v
	}
	out := &Vector{Type: TStr, S: make([]string, len(v.I)), Null: v.Null}
	for i, tok := range v.I {
		if v.Null != nil && v.Null[i] {
			continue
		}
		out.S[i] = v.Dict.Value(int32(tok))
	}
	return out
}

// IsNull reports whether row i is null.
func (v *Vector) IsNull(i int) bool { return v.Null != nil && v.Null[i] }

// SetNull marks row i null, allocating the null mask on first use. Like
// every write, it is only for a vector the caller allocated.
func (v *Vector) SetNull(i int) {
	if v.Null == nil {
		v.Null = make([]bool, v.Len())
	}
	v.Null[i] = true
}

// Value extracts row i as a scalar (slow path: result assembly, sorting keys).
func (v *Vector) Value(i int) Value {
	if v.IsNull(i) {
		return NullValue(v.Type)
	}
	switch {
	case v.Type == TFloat:
		return Value{Type: TFloat, F: v.F[i]}
	case v.Type == TStr && v.Dict == nil:
		return Value{Type: TStr, S: v.S[i]}
	case v.Type == TStr:
		return Value{Type: TStr, S: v.Dict.Value(int32(v.I[i]))}
	default:
		return Value{Type: v.Type, I: v.I[i]}
	}
}

// Set stores a scalar into row i; the scalar must match the vector type or be
// null.
func (v *Vector) Set(i int, val Value) {
	if val.Null {
		v.SetNull(i)
		return
	}
	if v.Null != nil {
		v.Null[i] = false
	}
	switch {
	case v.Type == TFloat:
		if val.Type == TFloat {
			v.F[i] = val.F
		} else {
			v.F[i] = float64(val.I)
		}
	case v.Type == TStr:
		v.S[i] = val.S
	default:
		v.I[i] = val.I
	}
}

// Append grows the vector by one row holding val.
func (v *Vector) Append(val Value) {
	switch {
	case v.Type == TFloat:
		v.F = append(v.F, val.AsFloat())
	case v.Type == TStr:
		v.S = append(v.S, val.S)
	default:
		v.I = append(v.I, val.I)
	}
	if val.Null {
		for len(v.Null) < v.Len()-1 {
			v.Null = append(v.Null, false)
		}
		v.Null = append(v.Null, true)
	} else if v.Null != nil {
		v.Null = append(v.Null, false)
	}
}

// Gather builds a new vector from the rows of v selected by idx.
func (v *Vector) Gather(idx []int32) *Vector {
	out := &Vector{Type: v.Type, Dict: v.Dict}
	switch {
	case v.Type == TFloat:
		out.F = make([]float64, len(idx))
		for o, i := range idx {
			out.F[o] = v.F[i]
		}
	case v.Type == TStr && v.Dict == nil:
		out.S = make([]string, len(idx))
		for o, i := range idx {
			out.S[o] = v.S[i]
		}
	default:
		out.I = make([]int64, len(idx))
		for o, i := range idx {
			out.I[o] = v.I[i]
		}
	}
	if v.Null != nil {
		out.Null = make([]bool, len(idx))
		any := false
		for o, i := range idx {
			if v.Null[i] {
				out.Null[o] = true
				any = true
			}
		}
		if !any {
			out.Null = nil
		}
	}
	return out
}

// Slice returns rows [from,to) of v as a capped view of its arrays.
func (v *Vector) Slice(from, to int) *Vector {
	out := &Vector{Type: v.Type, Dict: v.Dict, Null: view(v.Null, from, to)}
	switch {
	case v.Type == TFloat:
		out.F = view(v.F, from, to)
	case v.Type == TStr && v.Dict == nil:
		out.S = view(v.S, from, to)
	default:
		out.I = view(v.I, from, to)
	}
	return out
}

// ConstVector builds an n-row vector repeating a scalar.
func ConstVector(val Value, n int) *Vector {
	v := NewVector(val.Type, n)
	if val.Null {
		v.Null = make([]bool, n)
		for i := range v.Null {
			v.Null[i] = true
		}
		return v
	}
	switch {
	case val.Type == TFloat:
		for i := range v.F {
			v.F[i] = val.F
		}
	case val.Type == TStr:
		for i := range v.S {
			v.S[i] = val.S
		}
	default:
		for i := range v.I {
			v.I[i] = val.I
		}
	}
	return v
}

// Batch is a horizontal slice of rows across a set of columns.
type Batch struct {
	Cols []*Vector
	N    int
}

// NewBatch wraps vectors into a batch, validating equal lengths.
func NewBatch(cols []*Vector) *Batch {
	n := 0
	if len(cols) > 0 {
		n = cols[0].Len()
	}
	for _, c := range cols {
		if c.Len() != n {
			panic(fmt.Sprintf("storage: ragged batch: %d vs %d", c.Len(), n))
		}
	}
	return &Batch{Cols: cols, N: n}
}

// Row extracts row i as scalars (slow path).
func (b *Batch) Row(i int) []Value {
	out := make([]Value, len(b.Cols))
	for c, v := range b.Cols {
		out[c] = v.Value(i)
	}
	return out
}
