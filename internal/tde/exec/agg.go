package exec

import (
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// Group state is columnar, like Hillview's mergeable per-column summaries:
// a group is an int32 id, each aggregate keeps typed slices indexed by it,
// and the key columns grow by one row per new group. A batch is handled in
// two steps: every row gets its group id, then each aggregate runs one
// typed loop over the batch. The finished state is the result.

// aggCol is the state of one aggregate across all groups. out is the result
// column and, except for countd, the running value: the count, the sum (an
// avg's sum until finish divides it) or the min/max so far.
type aggCol struct {
	spec plan.AggSpec
	coll storage.Collation
	out  *storage.Vector
	n    []int64               // non-null inputs per group: sum, avg, min, max
	sets []map[string]struct{} // countd
}

// resize gives every group up to n its zero state.
func (c *aggCol) resize(n int) {
	grow := n - c.out.Len()
	if grow == 0 {
		return
	}
	switch c.out.Type {
	case storage.TFloat:
		c.out.F = append(c.out.F, make([]float64, grow)...)
	case storage.TStr:
		c.out.S = append(c.out.S, make([]string, grow)...)
	default:
		c.out.I = append(c.out.I, make([]int64, grow)...)
	}
	switch c.spec.Fn {
	case plan.AggCount:
	case plan.AggCountD:
		c.sets = append(c.sets, make([]map[string]struct{}, grow)...)
	default:
		c.n = append(c.n, make([]int64, grow)...)
	}
}

// update folds rows [lo, len(ids)) of b into the groups ids names. buf is
// scratch space for countd keys.
func (c *aggCol) update(b *storage.Batch, ids []int32, lo int, buf *[]byte) {
	if c.spec.ArgIdx < 0 { // count(*)
		counts := c.out.I
		for _, g := range ids[lo:] {
			counts[g]++
		}
		return
	}
	// The typed loops read locals: a store through c.out or v would
	// otherwise reload them on every row.
	v, n := b.Cols[c.spec.ArgIdx], c.n
	null := v.Null
	switch {
	case c.spec.Fn == plan.AggCount:
		counts := c.out.I
		for i := lo; i < len(ids); i++ {
			if null == nil || !null[i] {
				counts[ids[i]]++
			}
		}
	case c.spec.Fn == plan.AggCountD:
		for i := lo; i < len(ids); i++ {
			if v.IsNull(i) {
				continue
			}
			*buf = storage.AppendKey((*buf)[:0], v.Value(i), c.coll)
			set := c.sets[ids[i]]
			if set == nil {
				set = make(map[string]struct{})
				c.sets[ids[i]] = set
			}
			if _, ok := set[string(*buf)]; !ok {
				set[string(*buf)] = struct{}{}
			}
		}
	case c.spec.Fn == plan.AggMin || c.spec.Fn == plan.AggMax:
		sign := 1 // max: keep a value that compares above the current one
		if c.spec.Fn == plan.AggMin {
			sign = -1
		}
		for i := lo; i < len(ids); i++ {
			if v.IsNull(i) {
				continue
			}
			g, x := ids[i], v.Value(i)
			if n[g] == 0 || storage.Compare(x, c.out.Value(int(g)), c.coll)*sign > 0 {
				c.out.Set(int(g), x)
			}
			n[g]++
		}
	case v.Type == storage.TFloat: // sum, avg
		sums, xs := c.out.F, v.F
		for i := lo; i < len(ids); i++ {
			if null == nil || !null[i] {
				n[ids[i]]++
				sums[ids[i]] += xs[i]
			}
		}
	case c.out.Type == storage.TFloat: // avg of an int-backed column
		sums, xs := c.out.F, v.I
		for i := lo; i < len(ids); i++ {
			if null == nil || !null[i] {
				n[ids[i]]++
				sums[ids[i]] += float64(xs[i])
			}
		}
	default: // sum of an int-backed column
		sums, xs := c.out.I, v.I
		for i := lo; i < len(ids); i++ {
			if null == nil || !null[i] {
				n[ids[i]]++
				sums[ids[i]] += xs[i]
			}
		}
	}
}

// finish turns the state into the result column: a group with no input is
// null, an avg divides its sum, a countd counts its set.
func (c *aggCol) finish() *storage.Vector {
	for g, n := range c.n {
		switch {
		case n == 0:
			c.out.SetNull(g)
		case c.spec.Fn == plan.AggAvg:
			c.out.F[g] /= float64(n)
		}
	}
	for g, set := range c.sets {
		c.out.I[g] = int64(len(set))
	}
	return c.out
}

// aggCommon holds the pieces shared by the hash and streaming variants,
// among them the state of every group: one key column per group-by column
// and one aggCol per aggregate.
type aggCommon struct {
	node      *plan.Aggregate
	schema    []plan.ColInfo
	outSchema []plan.ColInfo
	keys      []*storage.Vector
	aggs      []aggCol
	n         int     // groups
	ids       []int32 // group of each row of the current batch
	keyBuf    []byte  // scratch for group and countd keys
}

// reset starts with no groups.
func (a *aggCommon) reset() {
	if a.outSchema == nil {
		a.outSchema = (&plan.Aggregate{Child: schemaNode(a.schema), GroupBy: a.node.GroupBy, Aggs: a.node.Aggs, Mode: a.node.Mode}).Schema()
	}
	a.keys, a.aggs, a.n = make([]*storage.Vector, len(a.node.GroupBy)), make([]aggCol, len(a.node.Aggs)), 0
	for k := range a.keys {
		a.keys[k] = storage.NewVector(a.outSchema[k].Type, 0)
	}
	for i, spec := range a.node.Aggs {
		a.aggs[i] = aggCol{spec: spec, out: storage.NewVector(a.outSchema[len(a.keys)+i].Type, 0)}
		if spec.ArgIdx >= 0 {
			a.aggs[i].coll = a.schema[spec.ArgIdx].Coll
		}
	}
}

// rowIDs returns the group id slice for a batch of n rows.
func (a *aggCommon) rowIDs(n int) []int32 {
	if cap(a.ids) < n {
		a.ids = make([]int32, n)
	}
	return a.ids[:n]
}

// newGroup adds the group whose key is row of b and returns its id. A
// grand aggregate's one group has no key, and b may be nil.
func (a *aggCommon) newGroup(b *storage.Batch, row int) int32 {
	for k, gi := range a.node.GroupBy {
		a.keys[k].Append(b.Cols[gi].Value(row))
	}
	a.n++
	return int32(a.n - 1)
}

// update folds rows [lo, len(ids)) of b into their groups, one aggregate at
// a time.
func (a *aggCommon) update(b *storage.Batch, ids []int32, lo int) {
	for i := range a.aggs {
		a.aggs[i].resize(a.n)
		a.aggs[i].update(b, ids, lo, &a.keyBuf)
	}
}

// result finishes the state into a Result; the grand aggregate of empty
// input is one row of empty aggregates, matching SQL semantics.
func (a *aggCommon) result() *Result {
	if a.n == 0 && len(a.node.GroupBy) == 0 {
		a.newGroup(nil, 0)
	}
	cols := append([]*storage.Vector(nil), a.keys...)
	for i := range a.aggs {
		a.aggs[i].resize(a.n)
		cols = append(cols, a.aggs[i].finish())
	}
	return &Result{Schema: a.outSchema, Cols: cols, N: a.n}
}

// encodeKey leaves the group key of the row in a.keyBuf.
func (a *aggCommon) encodeKey(b *storage.Batch, row int) {
	a.keyBuf = a.keyBuf[:0]
	for _, gi := range a.node.GroupBy {
		a.keyBuf = storage.AppendKey(a.keyBuf, b.Cols[gi].Value(row), a.schema[gi].Coll)
	}
}

// sameKey reports whether row i of b holds the same group column values as
// row i-1: the same tokens, numbers or strings. Values that differ here may
// still be equal under a collation, so false only means "encode the key".
func (a *aggCommon) sameKey(b *storage.Batch, i int) bool {
	for _, gi := range a.node.GroupBy {
		v := b.Cols[gi]
		switch {
		case v.IsNull(i) || v.IsNull(i-1):
			if v.IsNull(i) != v.IsNull(i-1) {
				return false
			}
		case v.Type == storage.TFloat:
			if v.F[i] != v.F[i-1] {
				return false
			}
		case v.Type == storage.TStr && v.Dict == nil:
			if v.S[i] != v.S[i-1] {
				return false
			}
		default:
			if v.I[i] != v.I[i-1] {
				return false
			}
		}
	}
	return true
}

// hashAggOp is the stop-and-go hash aggregation operator.
type hashAggOp struct {
	aggCommon
	child Operator
	out   *Result
	pos   int
	done  bool

	groups map[string]int32 // AppendKey of the group columns -> id
	ints   map[int64]int32  // the one int-backed group column -> id
	nullID int32            // its null group, or -1
	ts     tokenSlots
	slots  []int32 // token slot -> id+1; 0 is unknown
}

func (h *hashAggOp) Next() (*storage.Batch, error) {
	if !h.done {
		if err := h.consume(); err != nil {
			return nil, err
		}
		h.done = true
	}
	return h.out.nextBatch(&h.pos), nil
}

// consume groups the whole input. A single int-backed group column (decided
// by the schema, so every batch takes the same path) is looked up by value.
// Otherwise the groups map, keyed by AppendKey, is the source of truth;
// when every group column arrives as a dictionary vector, a token slot
// table caches its lookups, so batches that arrive decoded or over other
// dictionaries still land in the same groups.
func (h *hashAggOp) consume() error {
	h.reset()
	h.nullID = -1
	if len(h.node.GroupBy) == 1 && h.schema[h.node.GroupBy[0]].Type.IntBacked() {
		h.ints = make(map[int64]int32)
	} else {
		h.groups = make(map[string]int32)
	}
	for {
		b, err := h.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		ids := h.rowIDs(b.N)
		switch {
		case len(h.node.GroupBy) == 0:
			if b.N > 0 && h.n == 0 {
				h.newGroup(b, 0)
			}
			clear(ids)
		case h.ints != nil:
			h.intIDs(b, ids)
		default:
			h.keyIDs(b, ids)
		}
		h.update(b, ids, 0)
	}
	h.out = h.result()
	return nil
}

// intIDs numbers the rows of b by the value of its one int-backed group
// column; a run of equal values costs one lookup.
func (h *hashAggOp) intIDs(b *storage.Batch, ids []int32) {
	v := b.Cols[h.node.GroupBy[0]]
	for i := range ids {
		switch {
		case v.IsNull(i):
			if h.nullID < 0 {
				h.nullID = h.newGroup(b, i)
			}
			ids[i] = h.nullID
		case i > 0 && !v.IsNull(i-1) && v.I[i] == v.I[i-1]:
			ids[i] = ids[i-1]
		default:
			id, ok := h.ints[v.I[i]]
			if !ok {
				id = h.newGroup(b, i)
				h.ints[v.I[i]] = id
			}
			ids[i] = id
		}
	}
}

// keyIDs numbers the rows of b through the groups map and, for dictionary
// batches, the token slot table.
func (h *hashAggOp) keyIDs(b *storage.Batch, ids []int32) {
	tokens, reset := h.ts.number(b, h.node.GroupBy)
	if reset {
		h.slots = make([]int32, h.ts.n)
	}
	for i := range ids {
		if tokens {
			if s := h.slots[h.ts.row[i]]; s > 0 {
				ids[i] = s - 1
				continue
			}
		}
		h.encodeKey(b, i)
		id, ok := h.groups[string(h.keyBuf)]
		if !ok {
			id = h.newGroup(b, i)
			h.groups[string(h.keyBuf)] = id
		}
		ids[i] = id
		if tokens {
			h.slots[h.ts.row[i]] = id + 1
		}
	}
}

func (h *hashAggOp) Close() { h.child.Close() }

// streamAggOp assumes its input arrives grouped by the group-by columns
// (a property the optimizer derives from sorting, Sect. 4.2.4): a group
// ends when the next one starts, and every BatchSize ended groups go out
// as one batch.
type streamAggOp struct {
	aggCommon
	child  Operator
	b      *storage.Batch // input batch being consumed
	pos    int            // its first row not yet consumed
	curKey []byte
	eof    bool
}

func (s *streamAggOp) Next() (*storage.Batch, error) {
	if s.eof {
		return nil, nil
	}
	if s.outSchema == nil {
		s.reset()
	}
	for {
		if s.b != nil && s.pos < s.b.N && s.consume() {
			break // BatchSize groups are complete
		}
		b, err := s.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			s.eof = true
			if s.n == 0 && len(s.node.GroupBy) > 0 {
				return nil, nil
			}
			break
		}
		s.b, s.pos = b, 0
	}
	res := s.result()
	s.reset()
	return storage.NewBatch(res.Cols), nil
}

// consume numbers the rows of s.b from s.pos on and folds them into their
// groups. It stops before a row that would start group BatchSize+1,
// reporting true: the groups so far are complete and ready to go out.
func (s *streamAggOp) consume() bool {
	b, lo := s.b, s.pos
	ids := s.rowIDs(b.N)
	for i := lo; i < b.N; i++ {
		if s.n == 0 || i == 0 || !s.sameKey(b, i) {
			s.encodeKey(b, i)
			if s.n == 0 || string(s.keyBuf) != string(s.curKey) {
				if s.n == storage.BatchSize {
					s.update(b, ids[:i], lo)
					s.pos = i
					return true
				}
				s.newGroup(b, i)
				s.curKey = append(s.curKey[:0], s.keyBuf...)
			}
		}
		ids[i] = int32(s.n - 1)
	}
	s.update(b, ids, lo)
	s.pos = b.N
	return false
}

func (s *streamAggOp) Close() { s.child.Close() }

// schemaNode adapts a schema slice into a Node for reusing plan schema
// computation.
type schemaHolder struct{ schema []plan.ColInfo }

func schemaNode(s []plan.ColInfo) plan.Node { return &schemaHolder{schema: s} }

// Schema implements plan.Node.
func (s *schemaHolder) Schema() []plan.ColInfo { return s.schema }

// Children implements plan.Node.
func (s *schemaHolder) Children() []plan.Node { return nil }

// WithChildren implements plan.Node.
func (s *schemaHolder) WithChildren([]plan.Node) plan.Node { return s }

// Label implements plan.Node.
func (s *schemaHolder) Label() string { return "schema" }
