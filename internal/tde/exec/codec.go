package exec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
	"vizq/internal/wire"
)

// AppendResult appends r in the binary columnar form results and temp-table
// values cross the backend wire in: the schema (name, type, collation) and
// N, then per column a null mask and N values. Floats go as raw
// IEEE-754 bits, so NaN, ±Inf and -0 arrive bit-exact; strings go
// length-prefixed and byte-exact; every other type goes as varints.
// Dictionary columns go decoded. Stale does not cross: only the client
// marks a result stale.
func AppendResult(dst []byte, r *Result) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r.Schema)))
	for _, c := range r.Schema {
		dst = append(wire.AppendString(dst, c.Name), byte(c.Type), byte(c.Coll))
	}
	dst = binary.AppendUvarint(dst, uint64(r.N))
	for _, v := range r.Cols {
		v = v.Decode()
		dst = appendNulls(dst, v.Null, r.N)
		switch {
		case v.Type == storage.TFloat:
			for _, f := range v.F[:r.N] {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
			}
		case v.Type == storage.TStr:
			for _, s := range v.S[:r.N] {
				dst = wire.AppendString(dst, s)
			}
		default:
			for _, x := range v.I[:r.N] {
				dst = binary.AppendVarint(dst, x)
			}
		}
	}
	return dst
}

// appendNulls appends a 0 byte when none of the first n rows is null, and
// otherwise a 1 byte and the mask packed eight rows to a byte.
func appendNulls(dst []byte, null []bool, n int) []byte {
	null = null[:min(len(null), n)]
	if !slices.Contains(null, true) {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	at := len(dst)
	dst = append(dst, make([]byte, (n+7)/8)...)
	for i, isNull := range null {
		if isNull {
			dst[at+i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

// ReadResult decodes a Result written by AppendResult. Each column checks
// its claimed row count against the bytes left in the frame before it
// allocates, so a forged count fails instead of allocating for its claim.
func ReadResult(rd *wire.Reader) *Result {
	schema := make([]plan.ColInfo, rd.Count(3))
	for i := range schema {
		schema[i] = plan.ColInfo{Name: rd.Str(), Type: readType(rd), Coll: storage.Collation(rd.Byte())}
	}
	n := rd.Count(len(schema))
	r := &Result{Schema: schema, Cols: make([]*storage.Vector, len(schema)), N: n}
	for c, info := range schema {
		v := &storage.Vector{Type: info.Type}
		if rd.Bool() {
			v.Null = readNulls(rd, n)
		}
		switch {
		case v.Type == storage.TFloat:
			if rd.Need(8 * n) {
				v.F = make([]float64, n)
				for i := range v.F {
					v.F[i] = math.Float64frombits(rd.Uint64())
				}
			}
		case !rd.Need(n): // every other value takes at least one byte
		case v.Type == storage.TStr:
			v.S = make([]string, n)
			for i := range v.S {
				v.S[i] = rd.Str()
			}
		default:
			v.I = make([]int64, n)
			for i := range v.I {
				v.I[i] = rd.Varint()
			}
		}
		r.Cols[c] = v
	}
	return r
}

// readNulls reads a mask appendNulls packed; an all-false one reads as nil,
// as appendNulls writes it.
func readNulls(rd *wire.Reader, n int) []bool {
	bits := rd.Raw((n + 7) / 8)
	if strings.Trim(bits, "\x00") == "" {
		return nil
	}
	null := make([]bool, n)
	for i := range null {
		null[i] = bits[i/8]>>(i%8)&1 != 0
	}
	return null
}

func readType(rd *wire.Reader) storage.Type {
	t := storage.Type(rd.Byte())
	if t > storage.TDateTime {
		rd.Fail(fmt.Errorf("exec: unknown column type %d", t))
	}
	return t
}
