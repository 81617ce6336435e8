package exec

import "vizq/internal/tde/storage"

// maxSlots bounds a token slot table. Each operator instance allocates its
// own, so it stays the size of a few batch vectors (32 KB of pointers).
const maxSlots = 1 << 12

// tokenSlots numbers the rows of a batch whose key columns all arrive as
// dictionary vectors: a row's slot is the mixed-radix number of its tokens,
// with null as one extra token per column. An operator keeps a table
// indexed by slot that caches what a key resolves to, so each token
// combination is encoded and hashed once and every other row costs a slice
// load ("decompression as join", Sect. 4.1.2). The numbering holds only for
// the dictionaries it was made against.
type tokenSlots struct {
	dicts []*storage.Dictionary
	n     int     // slots for dicts
	row   []int32 // slot of each row of the last numbered batch
}

// number fills t.row with the slot of every row of b over the key columns
// cols. ok is false, and the caller takes its generic path, when a key
// column is not a dictionary vector or the slots would exceed maxSlots.
// reset is true when the dictionaries changed, so the caller's table must
// be rebuilt with t.n empty entries.
func (t *tokenSlots) number(b *storage.Batch, cols []int) (ok, reset bool) {
	n := 1
	for _, c := range cols {
		d := b.Cols[c].Dict
		if d == nil {
			return false, false
		}
		if n *= d.Len() + 1; n > maxSlots {
			return false, false
		}
	}
	reset = t.n != n
	for k, c := range cols {
		reset = reset || t.dicts[k] != b.Cols[c].Dict
	}
	if reset {
		t.dicts, t.n = t.dicts[:0], n
		for _, c := range cols {
			t.dicts = append(t.dicts, b.Cols[c].Dict)
		}
	}
	if cap(t.row) < b.N {
		t.row = make([]int32, b.N)
	}
	t.row = t.row[:b.N]
	clear(t.row)
	for _, c := range cols {
		v := b.Cols[c]
		radix := int32(v.Dict.Len() + 1)
		for i, tok := range v.I[:b.N] {
			if v.IsNull(i) {
				tok = int64(radix - 1)
			}
			t.row[i] = t.row[i]*radix + int32(tok)
		}
	}
	return true, reset
}
