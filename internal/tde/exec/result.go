package exec

import (
	"fmt"
	"strings"

	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// Result is a fully materialized query result: a small in-memory columnar
// table. Tableau retrieves data "in small, pre-filtered and pre-aggregated
// volumes" (Sect. 3.2), so materialized results are the unit the caches and
// the local post-processor work on.
//
// A Result a cache hands out — the stored one, or one derived from it —
// shares its vectors with the cached entry and is read-only: AppendRow,
// AppendBatch, Truncate and Vector writes are for results their caller
// built.
type Result struct {
	Schema []plan.ColInfo
	Cols   []*storage.Vector
	N      int
	// Stale marks a degraded answer served from an expired cache entry
	// during a backend outage; clients may badge it and re-query later.
	Stale bool
}

// NewResult allocates an empty result with the given schema.
func NewResult(schema []plan.ColInfo) *Result {
	cols := make([]*storage.Vector, len(schema))
	for i, c := range schema {
		cols[i] = storage.NewVector(c.Type, 0)
	}
	return &Result{Schema: schema, Cols: cols}
}

// AppendBatch adds a batch of rows; dictionary vectors are decoded.
func (r *Result) AppendBatch(b *storage.Batch) {
	for c, v := range b.Cols {
		v = v.Decode()
		dst := r.Cols[c]
		switch {
		case dst.Type == storage.TFloat:
			dst.F = append(dst.F, asFloats(v)...)
		case dst.Type == storage.TStr:
			dst.S = append(dst.S, v.S...)
		default:
			dst.I = append(dst.I, v.I...)
		}
		if v.Null != nil {
			for len(dst.Null) < r.N {
				dst.Null = append(dst.Null, false)
			}
			dst.Null = append(dst.Null, v.Null...)
		} else if dst.Null != nil {
			for i := 0; i < b.N; i++ {
				dst.Null = append(dst.Null, false)
			}
		}
	}
	r.N += b.N
}

// nextBatch returns the rows of r from *pos as one batch of at most
// BatchSize rows sharing r's vectors, and advances *pos; nil at the end.
func (r *Result) nextBatch(pos *int) *storage.Batch {
	if *pos >= r.N {
		return nil
	}
	to := min(*pos+storage.BatchSize, r.N)
	cols := make([]*storage.Vector, len(r.Cols))
	for i, v := range r.Cols {
		cols[i] = v.Slice(*pos, to)
	}
	*pos = to
	return storage.NewBatch(cols)
}

// AppendRow adds one row of scalars.
func (r *Result) AppendRow(vals []storage.Value) {
	for c, v := range vals {
		r.Cols[c].Append(coerce(v, r.Schema[c].Type))
	}
	r.N++
}

// Value returns the scalar at row i, column c.
func (r *Result) Value(i, c int) storage.Value { return r.Cols[c].Value(i) }

// Truncate keeps only the first n rows.
func (r *Result) Truncate(n int) {
	if n >= r.N {
		return
	}
	for c, v := range r.Cols {
		r.Cols[c] = v.Slice(0, n)
	}
	r.N = n
}

// ColumnIndex locates a schema column by name (case-insensitive), or -1.
func (r *Result) ColumnIndex(name string) int {
	for i, c := range r.Schema {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// SizeBytes estimates the in-memory footprint, used by cache admission and
// eviction policies.
func (r *Result) SizeBytes() int64 {
	var total int64
	for _, v := range r.Cols {
		switch {
		case v.Type == storage.TFloat:
			total += int64(len(v.F) * 8)
		case v.Type == storage.TStr:
			for _, s := range v.S {
				total += int64(len(s) + 16)
			}
		default:
			total += int64(len(v.I) * 8)
		}
		total += int64(len(v.Null))
	}
	return total
}

// String renders the result as an aligned text table for examples and
// debugging.
func (r *Result) String() string {
	headers := make([]string, len(r.Schema))
	widths := make([]int, len(r.Schema))
	for i, c := range r.Schema {
		headers[i] = c.Name
		widths[i] = len(c.Name)
	}
	rows := make([][]string, r.N)
	for i := 0; i < r.N; i++ {
		row := make([]string, len(r.Cols))
		for c := range r.Cols {
			row[c] = r.Value(i, c).String()
			if len(row[c]) > widths[c] {
				widths[c] = len(row[c])
			}
		}
		rows[i] = row
	}
	var b strings.Builder
	for i, h := range headers {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteString("\n")
	for _, row := range rows {
		for c, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[c], cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
