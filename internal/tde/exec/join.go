package exec

import (
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// hashJoinOp implements the TDE's equi-join: build a hash table from the
// right input (dimension side), probe with the left (fact side), as in
// Sect. 4.2.2. Null keys never match.
type hashJoinOp struct {
	node    *plan.Join
	left    Operator
	right   Operator
	lSchema []plan.ColInfo
	rSchema []plan.ColInfo

	built bool
	build *Result
	table map[string][]int32
	buf   []byte

	// Probe rows whose key columns are all dictionary vectors memoize each
	// token combination's match list; noMatches marks a resolved miss.
	ts   tokenSlots
	memo [][]int32
}

var noMatches = []int32{}

// keyColl returns the collation used for join key k: case-insensitive wins
// when the two sides disagree, so both sides hash identically.
func (j *hashJoinOp) keyColl(k int) storage.Collation {
	l := j.lSchema[j.node.LKeys[k]].Coll
	r := j.rSchema[j.node.RKeys[k]].Coll
	if l == storage.CollCI || r == storage.CollCI {
		return storage.CollCI
	}
	return storage.CollBinary
}

func (j *hashJoinOp) buildSide() error {
	res, err := Collect(j.right, j.rSchema)
	if err != nil {
		return err
	}
	j.build = res
	j.table = make(map[string][]int32, res.N)
	for i := 0; i < res.N; i++ {
		if j.encodeKey(res.Cols, j.node.RKeys, i) {
			j.table[string(j.buf)] = append(j.table[string(j.buf)], int32(i))
		}
	}
	j.built = true
	return nil
}

// encodeKey leaves the join key of row i in j.buf. It reports false when a
// key column is null: null keys never match.
func (j *hashJoinOp) encodeKey(cols []*storage.Vector, keys []int, i int) bool {
	j.buf = j.buf[:0]
	for ki, k := range keys {
		v := cols[k].Value(i)
		if v.Null {
			return false
		}
		j.buf = storage.AppendKey(j.buf, v, j.keyColl(ki))
	}
	return true
}

// matches returns the build rows matching probe row i of b.
func (j *hashJoinOp) matches(b *storage.Batch, i int, tokens bool) []int32 {
	if tokens && j.memo[j.ts.row[i]] != nil {
		return j.memo[j.ts.row[i]]
	}
	m := noMatches
	if j.encodeKey(b.Cols, j.node.LKeys, i) {
		if t := j.table[string(j.buf)]; t != nil {
			m = t
		}
	}
	if tokens {
		j.memo[j.ts.row[i]] = m
	}
	return m
}

func (j *hashJoinOp) Next() (*storage.Batch, error) {
	if !j.built {
		if err := j.buildSide(); err != nil {
			return nil, err
		}
	}
	for {
		b, err := j.left.Next()
		if err != nil || b == nil {
			return nil, err
		}
		tokens, reset := j.ts.number(b, j.node.LKeys)
		if reset {
			j.memo = make([][]int32, j.ts.n)
		}
		var lIdx, rIdx []int32
		var unmatched []int32
		for i := 0; i < b.N; i++ {
			matches := j.matches(b, i, tokens)
			if len(matches) == 0 {
				if j.node.Kind == plan.JoinLeft {
					unmatched = append(unmatched, int32(i))
				}
				continue
			}
			for _, m := range matches {
				lIdx = append(lIdx, int32(i))
				rIdx = append(rIdx, m)
			}
		}
		if len(lIdx) == 0 && len(unmatched) == 0 {
			continue
		}
		out := j.assemble(b, lIdx, rIdx, unmatched)
		return out, nil
	}
}

func (j *hashJoinOp) assemble(b *storage.Batch, lIdx, rIdx, unmatched []int32) *storage.Batch {
	nOut := len(lIdx) + len(unmatched)
	cols := make([]*storage.Vector, 0, len(j.lSchema)+len(j.rSchema))

	// Left columns: matched rows then unmatched rows.
	allL := lIdx
	if len(unmatched) > 0 {
		allL = append(append([]int32{}, lIdx...), unmatched...)
	}
	for _, v := range b.Cols {
		cols = append(cols, v.Gather(allL))
	}
	// Right columns: matched build rows, then nulls for unmatched left rows.
	for c, info := range j.rSchema {
		v := j.build.Cols[c].Gather(rIdx)
		if len(unmatched) > 0 {
			full := storage.NewVector(info.Type, nOut)
			for i := 0; i < len(rIdx); i++ {
				full.Set(i, v.Value(i))
			}
			for i := len(rIdx); i < nOut; i++ {
				full.SetNull(i)
			}
			v = full
		}
		cols = append(cols, v)
	}
	return storage.NewBatch(cols)
}

func (j *hashJoinOp) Close() {
	j.left.Close()
	j.right.Close()
}
