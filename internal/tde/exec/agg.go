package exec

import (
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// accum is the running state of one aggregate within one group.
type accum struct {
	count int64
	sumI  int64
	sumF  float64
	min   storage.Value
	max   storage.Value
	set   map[string]struct{} // countd only
}

// add folds v into the accumulator. buf is scratch space for countd keys.
func (a *accum) add(fn plan.AggFn, v storage.Value, coll storage.Collation, buf *[]byte) {
	if fn == plan.AggCount && v.Type == storage.TNull && !v.Null {
		// count(*): caller passes a non-null marker
		a.count++
		return
	}
	if v.Null {
		return
	}
	switch fn {
	case plan.AggCount:
		a.count++
	case plan.AggSum, plan.AggAvg:
		a.count++
		if v.Type == storage.TFloat {
			a.sumF += v.F
		} else {
			a.sumI += v.I
			a.sumF += float64(v.I)
		}
	case plan.AggMin:
		if a.count == 0 || storage.Compare(v, a.min, coll) < 0 {
			a.min = v
		}
		a.count++
	case plan.AggMax:
		if a.count == 0 || storage.Compare(v, a.max, coll) > 0 {
			a.max = v
		}
		a.count++
	case plan.AggCountD:
		if a.set == nil {
			a.set = make(map[string]struct{})
		}
		*buf = storage.AppendKey((*buf)[:0], v, coll)
		if _, ok := a.set[string(*buf)]; !ok {
			a.set[string(*buf)] = struct{}{}
		}
	}
}

func (a *accum) result(fn plan.AggFn, inType storage.Type) storage.Value {
	switch fn {
	case plan.AggCount:
		return storage.IntValue(a.count)
	case plan.AggCountD:
		return storage.IntValue(int64(len(a.set)))
	case plan.AggSum:
		if a.count == 0 {
			return storage.NullValue(fn.ResultType(inType))
		}
		if inType == storage.TFloat {
			return storage.FloatValue(a.sumF)
		}
		return storage.IntValue(a.sumI)
	case plan.AggAvg:
		if a.count == 0 {
			return storage.NullValue(storage.TFloat)
		}
		return storage.FloatValue(a.sumF / float64(a.count))
	case plan.AggMin:
		if a.count == 0 {
			return storage.NullValue(inType)
		}
		return a.min
	default: // AggMax
		if a.count == 0 {
			return storage.NullValue(inType)
		}
		return a.max
	}
}

type group struct {
	keys   []storage.Value
	accums []accum
}

// aggCommon holds the pieces shared by the hash and streaming variants.
type aggCommon struct {
	node   *plan.Aggregate
	schema []plan.ColInfo
	keyBuf []byte // scratch for group and countd keys
}

func (a *aggCommon) newGroup(b *storage.Batch, row int) *group {
	g := &group{
		keys:   make([]storage.Value, len(a.node.GroupBy)),
		accums: make([]accum, len(a.node.Aggs)),
	}
	for i, gi := range a.node.GroupBy {
		g.keys[i] = b.Cols[gi].Value(row)
	}
	return g
}

func (a *aggCommon) update(g *group, b *storage.Batch, row int) {
	for i, spec := range a.node.Aggs {
		if spec.ArgIdx < 0 {
			// count(*): pass the non-null marker value
			g.accums[i].add(spec.Fn, storage.Value{Type: storage.TNull}, storage.CollBinary, nil)
			continue
		}
		coll := a.schema[spec.ArgIdx].Coll
		g.accums[i].add(spec.Fn, b.Cols[spec.ArgIdx].Value(row), coll, &a.keyBuf)
	}
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

func (a *aggCommon) emit(out *Result, g *group) {
	row := make([]storage.Value, 0, len(g.keys)+len(g.accums))
	row = append(row, g.keys...)
	for i, spec := range a.node.Aggs {
		inType := storage.TInt
		if spec.ArgIdx >= 0 {
			inType = a.schema[spec.ArgIdx].Type
		}
		row = append(row, g.accums[i].result(spec.Fn, inType))
	}
	out.AppendRow(row)
}

// hashAggOp is the stop-and-go hash aggregation operator.
type hashAggOp struct {
	aggCommon
	child Operator
	out   *Result
	pos   int
	done  bool
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

// consume groups the whole input. The groups map, keyed by AppendKey, is
// the source of truth; when every group column arrives as a dictionary
// vector, a token slot table caches its lookups, so batches that arrive
// decoded or over other dictionaries still land in the same groups.
func (h *hashAggOp) consume() error {
	groups := make(map[string]*group)
	var order []*group
	var ts tokenSlots
	var slots []*group
	for {
		b, err := h.child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		tokens, reset := ts.number(b, h.node.GroupBy)
		if reset {
			slots = make([]*group, ts.n)
		}
		for i := 0; i < b.N; i++ {
			var g *group
			if tokens {
				g = slots[ts.row[i]]
			}
			if g == nil {
				h.encodeKey(b, i)
				if g = groups[string(h.keyBuf)]; g == nil {
					g = h.newGroup(b, i)
					groups[string(h.keyBuf)] = g
					order = append(order, g)
				}
				if tokens {
					slots[ts.row[i]] = g
				}
			}
			h.update(g, b, i)
		}
	}
	out := NewResult((&plan.Aggregate{Child: schemaNode(h.schema), GroupBy: h.node.GroupBy, Aggs: h.node.Aggs, Mode: h.node.Mode}).Schema())
	// A grand aggregate (no group-by) over empty input yields one row of
	// empty aggregates, matching SQL semantics.
	if len(order) == 0 && len(h.node.GroupBy) == 0 {
		g := &group{accums: make([]accum, len(h.node.Aggs))}
		h.emit(out, g)
	}
	for _, g := range order {
		h.emit(out, g)
	}
	h.out = out
	return nil
}

func (h *hashAggOp) Close() { h.child.Close() }

// streamAggOp assumes its input arrives grouped by the group-by columns
// (a property the optimizer derives from sorting, Sect. 4.2.4) and emits
// each group as soon as the next one starts.
type streamAggOp struct {
	aggCommon
	child   Operator
	out     *Result
	cur     *group
	curKey  []byte
	started bool
	eof     bool
}

func (s *streamAggOp) outSchema() []plan.ColInfo {
	return (&plan.Aggregate{Child: schemaNode(s.schema), GroupBy: s.node.GroupBy, Aggs: s.node.Aggs, Mode: s.node.Mode}).Schema()
}

func (s *streamAggOp) Next() (*storage.Batch, error) {
	if s.eof {
		return nil, nil
	}
	out := NewResult(s.outSchema())
	for out.N < storage.BatchSize {
		b, err := s.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			s.eof = true
			if s.cur != nil {
				s.emit(out, s.cur)
				s.cur = nil
			} else if !s.started && len(s.node.GroupBy) == 0 {
				s.emit(out, &group{accums: make([]accum, len(s.node.Aggs))})
			}
			break
		}
		s.started = s.started || b.N > 0
		for i := 0; i < b.N; i++ {
			if i == 0 || !s.sameKey(b, i) {
				s.encodeKey(b, i)
				if s.cur == nil || string(s.keyBuf) != string(s.curKey) {
					if s.cur != nil {
						s.emit(out, s.cur)
					}
					s.cur = s.newGroup(b, i)
					s.curKey = append(s.curKey[:0], s.keyBuf...)
				}
			}
			s.update(s.cur, b, i)
		}
	}
	if out.N == 0 {
		return nil, nil
	}
	return storage.NewBatch(out.Cols), nil
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
