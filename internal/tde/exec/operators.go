package exec

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"vizq/internal/obs"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// Executor metrics, shared process-wide.
var (
	mExchDOP  = obs.H("exec.exchange.dop")
	mScanRows = obs.H("exec.scan.batch_rows")
)

// Operator is a Volcano iterator producing row batches. Next returns nil at
// end of stream. Close releases resources and must be called exactly once.
type Operator interface {
	Next() (*storage.Batch, error)
	Close()
}

// Build compiles a plan tree into an operator tree.
func Build(ctx context.Context, n plan.Node) (Operator, error) {
	b := &builder{ctx: ctx, shared: map[*plan.Shared]*sharedState{}}
	return b.build(n)
}

// Run executes a plan and materializes its full result.
func Run(ctx context.Context, n plan.Node) (*Result, error) {
	op, err := Build(ctx, n)
	if err != nil {
		return nil, err
	}
	defer op.Close()
	return Collect(op, n.Schema())
}

// Collect drains an operator into a Result.
func Collect(op Operator, schema []plan.ColInfo) (*Result, error) {
	res := NewResult(schema)
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return res, nil
		}
		res.AppendBatch(b)
	}
}

type builder struct {
	ctx    context.Context
	shared map[*plan.Shared]*sharedState
}

func (bd *builder) build(n plan.Node) (Operator, error) {
	switch x := n.(type) {
	case *plan.Scan:
		return newScanOp(bd.ctx, x), nil
	case *plan.Filter:
		child, err := bd.build(x.Child)
		if err != nil {
			return nil, err
		}
		return newFilterOp(child, x.Pred), nil
	case *plan.Project:
		child, err := bd.build(x.Child)
		if err != nil {
			return nil, err
		}
		return &projectOp{child: child, exprs: x.Exprs}, nil
	case *plan.Join:
		left, err := bd.build(x.Left)
		if err != nil {
			return nil, err
		}
		right, err := bd.build(x.Right)
		if err != nil {
			left.Close()
			return nil, err
		}
		return &hashJoinOp{
			node: x, left: left, right: right,
			lSchema: x.Left.Schema(), rSchema: x.Right.Schema(),
		}, nil
	case *plan.Aggregate:
		child, err := bd.build(x.Child)
		if err != nil {
			return nil, err
		}
		common := aggCommon{node: x, schema: x.Child.Schema()}
		if x.Streaming {
			return &streamAggOp{aggCommon: common, child: child}, nil
		}
		return &hashAggOp{aggCommon: common, child: child}, nil
	case *plan.Sort:
		child, err := bd.build(x.Child)
		if err != nil {
			return nil, err
		}
		return &sortOp{child: child, keys: x.Keys, schema: x.Child.Schema(), n: -1}, nil
	case *plan.TopN:
		child, err := bd.build(x.Child)
		if err != nil {
			return nil, err
		}
		return &sortOp{child: child, keys: x.Keys, schema: x.Child.Schema(), n: x.N}, nil
	case *plan.Limit:
		child, err := bd.build(x.Child)
		if err != nil {
			return nil, err
		}
		return &limitOp{child: child, remain: x.N}, nil
	case *plan.Exchange:
		ops := make([]Operator, len(x.Inputs))
		for i, in := range x.Inputs {
			op, err := bd.build(in)
			if err != nil {
				for _, o := range ops[:i] {
					o.Close()
				}
				return nil, err
			}
			ops[i] = op
		}
		if len(x.MergeKeys) > 0 {
			return newMergeExchangeOp(bd.ctx, ops, x.MergeKeys, x.Schema()), nil
		}
		return newExchangeOp(bd.ctx, ops), nil
	case *plan.Shared:
		st := bd.shared[x]
		if st == nil {
			st = &sharedState{}
			bd.shared[x] = st
		}
		return &sharedOp{ctx: bd.ctx, node: x, state: st, builder: bd}, nil
	}
	return nil, fmt.Errorf("exec: no operator for %T", n)
}

// ---- scan ----

type scanOp struct {
	ctx     context.Context
	node    *plan.Scan
	ranges  []plan.RowRange
	ri      int   // current range
	pos     int64 // next row within current range
	ioDelay time.Duration
}

func newScanOp(ctx context.Context, s *plan.Scan) *scanOp {
	rows := s.Table.Rows
	ranges := s.Ranges
	if ranges == nil {
		ranges = []plan.RowRange{{From: 0, To: rows}}
	}
	if s.Part.Count > 1 {
		ranges = partitionRanges(ranges, s.Part)
	}
	op := &scanOp{ctx: ctx, node: s, ranges: ranges, ioDelay: ConfigFrom(ctx).ScanBatchDelay}
	if len(ranges) > 0 {
		op.pos = ranges[0].From
	}
	return op
}

// partitionRanges splits the scan's row ranges into Count fractions and
// returns the slice owned by fraction Index, splitting by total row volume.
func partitionRanges(ranges []plan.RowRange, p plan.Partition) []plan.RowRange {
	var total int64
	for _, r := range ranges {
		total += r.To - r.From
	}
	lo := total * int64(p.Index) / int64(p.Count)
	hi := total * int64(p.Index+1) / int64(p.Count)
	var out []plan.RowRange
	var off int64
	for _, r := range ranges {
		n := r.To - r.From
		start, end := off, off+n
		from, to := maxI64(lo, start), minI64(hi, end)
		if from < to {
			out = append(out, plan.RowRange{From: r.From + from - start, To: r.From + to - start})
		}
		off = end
	}
	return out
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (s *scanOp) Next() (*storage.Batch, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	for s.ri < len(s.ranges) {
		r := s.ranges[s.ri]
		if s.pos >= r.To {
			s.ri++
			if s.ri < len(s.ranges) {
				s.pos = s.ranges[s.ri].From
			}
			continue
		}
		to := s.pos + storage.BatchSize
		if to > r.To {
			to = r.To
		}
		if s.ioDelay > 0 {
			time.Sleep(s.ioDelay) //vizlint:allow sleep -- simulated block read (see Config)
		}
		cols := make([]*storage.Vector, len(s.node.ColIdxs))
		for i, ci := range s.node.ColIdxs {
			cols[i] = s.node.Table.Cols[ci].ScanRange(int(s.pos), int(to))
		}
		s.pos = to
		b := storage.NewBatch(cols)
		mScanRows.Observe(int64(b.N))
		return b, nil
	}
	return nil, nil
}

func (s *scanOp) Close() {}

// ---- filter ----

// filterOp keeps the rows its predicate holds for. It narrows one selection
// of row numbers, reused for every batch, conjunct by conjunct, and gathers
// only the rows that survive; a batch that survives whole goes out as is.
type filterOp struct {
	child Operator
	conj  []*conjunct
	sel   []int32
}

// conjunct is one operand of the predicate's AND. One that reads a single
// column is decided once per token when that column arrives as a
// dictionary vector ("decompression as join", Sect. 4.1): hold[t] is its
// answer at token t of dict, and hold[dict.Len()] its answer at null. The
// answers come from EvalExpr, so they are the row-at-a-time answers.
type conjunct struct {
	e    plan.Expr
	col  int // the one column e reads, or -1
	dict *storage.Dictionary
	hold []bool
	set  *inSet // e's member set, when e is an IN
}

func newFilterOp(child Operator, pred plan.Expr) *filterOp {
	f := &filterOp{child: child}
	for _, e := range plan.AndSplit(pred) {
		c := &conjunct{e: e, col: -1}
		if refs := plan.ReferencedCols(e); len(refs) == 1 {
			c.col = refs[0]
		}
		f.conj = append(f.conj, c)
	}
	return f
}

func (f *filterOp) Next() (*storage.Batch, error) {
	for {
		b, err := f.child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		sel, err := f.selectRows(b)
		if err != nil {
			return nil, err
		}
		switch len(sel) {
		case 0:
			continue
		case b.N:
			return b, nil
		}
		cols := make([]*storage.Vector, len(b.Cols))
		for c, v := range b.Cols {
			cols[c] = v.Gather(sel)
		}
		return storage.NewBatch(cols), nil
	}
}

func (f *filterOp) Close() { f.child.Close() }

// rowIDs numbers the rows of a whole batch. The first conjunct reads it and
// writes the selection, so no batch fills in 0..N-1. It is never written.
var rowIDs = iota32(storage.BatchSize)

func iota32(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// selectRows returns the rows of b at which the predicate is true and not
// null, in f.sel.
func (f *filterOp) selectRows(b *storage.Batch) ([]int32, error) {
	in := rowIDs
	if b.N > len(in) {
		in = iota32(b.N)
	}
	in = in[:b.N]
	var err error
	for _, c := range f.conj {
		if f.sel, err = c.narrow(b, in, f.sel[:0]); err != nil || len(f.sel) == 0 {
			break
		}
		in = f.sel
	}
	return f.sel, err
}

// narrow appends to out, which may start at in's array, the rows of in at
// which c is true and not null. A token table, an IN and a numeric
// comparison with a literal test only the rows of in and write no vector;
// any other shape goes through EvalExpr.
func (c *conjunct) narrow(b *storage.Batch, in, out []int32) ([]int32, error) {
	if hold, err := c.table(b); hold != nil || err != nil {
		return keepTokens(in, out, b.Cols[c.col], hold), err
	}
	switch x := c.e.(type) {
	case *plan.InList:
		v, err := EvalExpr(x.E, b)
		if err != nil {
			return out, err
		}
		if c.set == nil || c.set.dict != v.Dict {
			c.set = newInSet(x, v)
		}
		return keep(in, out, func(i int) bool { return !v.IsNull(i) && c.set.has(v, i) != x.Negate }), nil
	case *plan.Cmp:
		if out, ok, err := narrowCmp(x, b, in, out); ok || err != nil {
			return out, err
		}
	}
	v, err := EvalExpr(c.e, b)
	if err != nil {
		return out, err
	}
	return keep(in, out, func(i int) bool { return v.I[i] != 0 && !v.IsNull(i) }), nil
}

// table returns c's answers for the dictionary its column arrives with in
// b, built when the dictionary changes. It is nil when c reads other than
// one column, or the column has no dictionary or one of maxSlots entries
// or more.
func (c *conjunct) table(b *storage.Batch) ([]bool, error) {
	if c.col < 0 || b.Cols[c.col].Dict == c.dict {
		return c.hold, nil
	}
	d := b.Cols[c.col].Dict
	c.dict, c.hold = d, nil
	if d == nil || d.Len() >= maxSlots {
		return nil, nil
	}
	n := d.Len() + 1
	toks := &storage.Vector{Type: storage.TStr, Dict: d, I: make([]int64, n), Null: make([]bool, n)}
	for i := range toks.I[:n-1] {
		toks.I[i] = int64(i)
	}
	toks.Null[n-1] = true
	cols := make([]*storage.Vector, len(b.Cols))
	cols[c.col] = toks
	r, err := EvalExpr(c.e, &storage.Batch{Cols: cols, N: n})
	if err != nil {
		return nil, err
	}
	c.hold = make([]bool, n)
	for i := range c.hold {
		c.hold[i] = r.I[i] != 0 && !r.IsNull(i)
	}
	return c.hold, nil
}

// keepTokens appends to out the rows of in whose token in v holds in hold.
func keepTokens(in, out []int32, v *storage.Vector, hold []bool) []int32 {
	toks := v.I
	if v.Null == nil {
		for _, i := range in {
			if hold[toks[i]] {
				out = append(out, i)
			}
		}
		return out
	}
	nullHolds := hold[len(hold)-1]
	for _, i := range in {
		if v.Null[i] && nullHolds || !v.Null[i] && hold[toks[i]] {
			out = append(out, i)
		}
	}
	return out
}

// narrowCmp appends to out the rows of in at which a number compares with a
// literal as c says. ok is false for the shapes EvalExpr must decide.
func narrowCmp(c *plan.Cmp, b *storage.Batch, in, out []int32) (_ []int32, ok bool, err error) {
	x, op, lit, ok := litCmp(c)
	if !ok {
		return out, false, nil
	}
	if lit.Null {
		return out, true, nil
	}
	v, err := EvalExpr(x, b)
	if err != nil {
		return out, false, err
	}
	holds := [3]bool{cmpHolds(op, -1), cmpHolds(op, 0), cmpHolds(op, 1)}
	switch {
	case v.Type == storage.TStr || lit.Type == storage.TStr:
		return out, false, nil
	case v.Type == storage.TFloat:
		out = keepCmp(in, out, v.F, holds, lit.AsFloat())
	case lit.Type == storage.TFloat:
		out = keepCmp(in, out, v.I, holds, lit.F)
	default:
		out = keepCmp(in, out, v.I, holds, lit.I)
	}
	if v.Null != nil {
		out = keep(out, out[:0], func(i int) bool { return !v.Null[i] })
	}
	return out, true, nil
}

// keepCmp appends to out the rows i of in at which holds[c+1] is true, for c
// xs[i]'s order against lit as cmp.Compare gives it.
func keepCmp[X, L int64 | float64](in, out []int32, xs []X, holds [3]bool, lit L) []int32 {
	for _, i := range in {
		if holds[cmp.Compare(L(xs[i]), lit)+1] {
			out = append(out, i)
		}
	}
	return out
}

// keep appends to out the rows of in at which hold is true.
func keep(in, out []int32, hold func(i int) bool) []int32 {
	for _, i := range in {
		if hold(int(i)) {
			out = append(out, i)
		}
	}
	return out
}

// ---- project ----

type projectOp struct {
	child Operator
	exprs []plan.Expr
}

func (p *projectOp) Next() (*storage.Batch, error) {
	b, err := p.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	cols := make([]*storage.Vector, len(p.exprs))
	for i, e := range p.exprs {
		v, err := EvalExpr(e, b)
		if err != nil {
			return nil, err
		}
		cols[i] = v
	}
	return storage.NewBatch(cols), nil
}

func (p *projectOp) Close() { p.child.Close() }

// ---- limit ----

type limitOp struct {
	child  Operator
	remain int
}

func (l *limitOp) Next() (*storage.Batch, error) {
	if l.remain <= 0 {
		return nil, nil
	}
	b, err := l.child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if b.N > l.remain {
		cols := make([]*storage.Vector, len(b.Cols))
		for i, v := range b.Cols {
			cols[i] = v.Slice(0, l.remain)
		}
		b = storage.NewBatch(cols)
	}
	l.remain -= b.N
	return b, nil
}

func (l *limitOp) Close() { l.child.Close() }

// ---- exchange ----

type exchResult struct {
	batch *storage.Batch
	err   error
}

// exchangeOp merges N child streams into one. Each child runs in its own
// goroutine; output order across children is arbitrary (the Tableau 9.0
// Exchange is not order-preserving).
type exchangeOp struct {
	cancel  context.CancelFunc
	ch      chan exchResult
	wg      sync.WaitGroup
	started bool
	childs  []Operator
	ctx     context.Context
}

func newExchangeOp(ctx context.Context, childs []Operator) *exchangeOp {
	mExchDOP.Observe(int64(len(childs)))
	cctx, cancel := context.WithCancel(ctx)
	return &exchangeOp{ctx: cctx, cancel: cancel, childs: childs,
		ch: make(chan exchResult, len(childs))}
}

func (e *exchangeOp) start() {
	e.started = true
	for _, c := range e.childs {
		e.wg.Add(1)
		go func(op Operator) {
			defer e.wg.Done()
			for {
				b, err := op.Next()
				if err != nil {
					select {
					case e.ch <- exchResult{err: err}:
					case <-e.ctx.Done():
					}
					return
				}
				if b == nil {
					return
				}
				select {
				case e.ch <- exchResult{batch: b}:
				case <-e.ctx.Done():
					return
				}
			}
		}(c)
	}
	go func() {
		e.wg.Wait()
		close(e.ch)
	}()
}

func (e *exchangeOp) Next() (*storage.Batch, error) {
	if !e.started {
		e.start()
	}
	select {
	case r, ok := <-e.ch:
		if !ok {
			return nil, nil
		}
		if r.err != nil {
			return nil, r.err
		}
		return r.batch, nil
	case <-e.ctx.Done():
		return nil, e.ctx.Err()
	}
}

func (e *exchangeOp) Close() {
	e.cancel()
	if e.started {
		e.wg.Wait()
	}
	for _, c := range e.childs {
		c.Close()
	}
}

// ---- shared table ----

// sharedState materializes a subtree once and serves it to every referencing
// clone (SharedTable, Sect. 4.2.1: "share access to a table across multiple
// threads and handle synchronization").
type sharedState struct {
	once sync.Once
	res  *Result
	err  error
}

type sharedOp struct {
	ctx     context.Context
	node    *plan.Shared
	state   *sharedState
	builder *builder
	pos     int
}

func (s *sharedOp) materialize() {
	// Build a private operator tree for the shared child; only one clone's
	// goroutine executes this (sync.Once).
	op, err := Build(s.ctx, s.node.Child)
	if err != nil {
		s.state.err = err
		return
	}
	defer op.Close()
	s.state.res, s.state.err = Collect(op, s.node.Child.Schema())
}

func (s *sharedOp) Next() (*storage.Batch, error) {
	s.state.once.Do(s.materialize)
	if s.state.err != nil {
		return nil, s.state.err
	}
	return s.state.res.nextBatch(&s.pos), nil
}

func (s *sharedOp) Close() {}

// ---- sort and top-n ----

// sortOp sorts its whole input and emits the first n rows (all when n < 0).
type sortOp struct {
	child  Operator
	keys   []plan.SortKey
	schema []plan.ColInfo
	n      int
	out    *Result
	pos    int
}

func (s *sortOp) Next() (*storage.Batch, error) {
	if s.out == nil {
		res, err := Collect(s.child, s.schema)
		if err != nil {
			return nil, err
		}
		SortResult(res, s.keys)
		if s.n >= 0 {
			res.Truncate(s.n)
		}
		s.out = res
	}
	return s.out.nextBatch(&s.pos), nil
}

func (s *sortOp) Close() { s.child.Close() }

// SortResult orders the result rows in place by the sort keys: a stable
// sort under each key column's collation.
func SortResult(res *Result, keys []plan.SortKey) {
	idx := make([]int32, res.N)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return compareRows(res, int(idx[a]), int(idx[b]), keys) < 0
	})
	for c, v := range res.Cols {
		res.Cols[c] = v.Gather(idx)
	}
}

func compareRows(res *Result, a, b int, keys []plan.SortKey) int {
	for _, k := range keys {
		av, bv := res.Cols[k.Col].Value(a), res.Cols[k.Col].Value(b)
		c := storage.Compare(av, bv, res.Schema[k.Col].Coll)
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}
