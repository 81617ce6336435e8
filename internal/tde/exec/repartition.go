package exec

import (
	"context"
	"hash/fnv"
	"sync"

	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
)

// NewRepartition builds the N-input M-output form of the Exchange operator
// (Sect. 4.2.1: the TDE's Exchange "is able to take N inputs and produce M
// outputs" and "has a capability to repartition the data"). Rows from the
// inputs are hash-partitioned on hashCols: every row with equal key values
// lands on the same output, the precondition for partitioned joins and
// aggregations. The Tableau 9.0 optimizer does not yet emit this form
// (Sect. 4.2.2 limits plans to N inputs / one output); it is provided as the
// operator capability the paper describes, for the planned repartitioning
// explorations.
//
// All M returned operators must be consumed (concurrently or until EOF) and
// each must be Closed.
func NewRepartition(ctx context.Context, inputs []Operator, m int, hashCols []int, schema []plan.ColInfo) []Operator {
	cctx, cancel := context.WithCancel(ctx)
	st := &repartitionState{
		cancel: cancel,
		outs:   make([]chan exchResult, m),
	}
	for i := range st.outs {
		st.outs[i] = make(chan exchResult, 2)
	}

	var wg sync.WaitGroup
	for _, in := range inputs {
		wg.Add(1)
		go func(op Operator) {
			defer wg.Done()
			route(cctx, op, st.outs, hashCols, schema, m)
		}(in)
	}
	go func() {
		wg.Wait()
		for _, ch := range st.outs {
			close(ch)
		}
		for _, in := range inputs {
			in.Close()
		}
	}()

	outs := make([]Operator, m)
	for i := 0; i < m; i++ {
		outs[i] = &repartitionOut{ctx: cctx, state: st, ch: st.outs[i]}
	}
	return outs
}

type repartitionState struct {
	cancel context.CancelFunc
	outs   []chan exchResult

	mu     sync.Mutex
	closed int
}

// outClosed cancels the router group once every output has been closed.
func (st *repartitionState) outClosed() {
	st.mu.Lock()
	st.closed++
	done := st.closed >= len(st.outs)
	st.mu.Unlock()
	if done {
		st.cancel()
	}
}

// route pulls batches from one input and scatters its rows to the output
// partitions.
func route(ctx context.Context, op Operator, outs []chan exchResult, hashCols []int, schema []plan.ColInfo, m int) {
	var keyBuf []byte
	for {
		b, err := op.Next()
		if err != nil {
			for _, ch := range outs {
				select {
				case ch <- exchResult{err: err}:
				case <-ctx.Done():
				}
			}
			return
		}
		if b == nil {
			return
		}
		// Partition the batch rows by hash of the key columns.
		idxs := make([][]int32, m)
		for i := 0; i < b.N; i++ {
			keyBuf = keyBuf[:0]
			for _, c := range hashCols {
				keyBuf = storage.AppendKey(keyBuf, b.Cols[c].Value(i), schema[c].Coll)
			}
			h := fnv.New32a()
			h.Write(keyBuf)
			p := int(h.Sum32()) % m
			if p < 0 {
				p += m
			}
			idxs[p] = append(idxs[p], int32(i))
		}
		for p, rows := range idxs {
			if len(rows) == 0 {
				continue
			}
			cols := make([]*storage.Vector, len(b.Cols))
			for c, v := range b.Cols {
				cols[c] = v.Gather(rows)
			}
			select {
			case outs[p] <- exchResult{batch: storage.NewBatch(cols)}:
			case <-ctx.Done():
				return
			}
		}
	}
}

type repartitionOut struct {
	ctx       context.Context
	state     *repartitionState
	ch        chan exchResult
	closeOnce sync.Once
}

func (r *repartitionOut) Next() (*storage.Batch, error) {
	select {
	case res, ok := <-r.ch:
		if !ok {
			return nil, nil
		}
		if res.err != nil {
			return nil, res.err
		}
		return res.batch, nil
	case <-r.ctx.Done():
		return nil, r.ctx.Err()
	}
}

func (r *repartitionOut) Close() {
	// The router group is cancelled once every output has been closed;
	// inputs are closed by the router's completion goroutine. A closed
	// output also drains its channel so routers never block on it.
	r.closeOnce.Do(func() {
		go func() {
			for range r.ch {
			}
		}()
		r.state.outClosed()
	})
}
