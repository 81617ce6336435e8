package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vizq/internal/cache"
	"vizq/internal/obs"
	"vizq/internal/query"
	"vizq/internal/tde/exec"
)

// ExecuteBatch minimizes the latency of an entire query batch (Sect. 3.3):
//
//  1. Answer what the cache already covers.
//  2. Build the cache-hit opportunity graph over the rest and partition it:
//     source nodes go remote, dominated nodes are computed locally from
//     their predecessors' results.
//  3. Fuse remote queries that differ only in their projection lists
//     (Sect. 3.4).
//  4. Send the remote queries as one wave (executeRemote); answer each
//     local query as soon as one of its predecessors completes.
//
// Results are returned in batch order.
func (p *Processor) ExecuteBatch(ctx context.Context, batch []*query.Query) ([]*exec.Result, error) {
	results := make([]*exec.Result, len(batch))
	errs := make([]error, len(batch))
	for _, q := range batch {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	ctx, sp := obs.StartSpan(ctx, obs.SpanBatch)
	defer sp.Finish()
	mBatchSize.Observe(int64(len(batch)))

	// Phase 0: cache hits answer immediately.
	var pending []int
	_, probe := obs.StartSpan(ctx, obs.SpanCacheProbe)
	for i, q := range batch {
		if res, ok := p.probeIntelligent(q, &p.cacheHits); ok {
			results[i] = res
			continue
		}
		pending = append(pending, i)
	}
	probe.Finish()
	if len(pending) == 0 {
		return results, nil
	}

	if p.opt.DisableBatchConcurrency {
		for _, i := range pending {
			res, err := p.Execute(ctx, batch[i])
			if err != nil {
				return nil, fmt.Errorf("core: query %d: %w", i, err)
			}
			results[i] = res
		}
		return results, nil
	}

	// Phase 1: the cache-hit opportunity graph (Fig. 3). pred[j] holds the
	// pending indices whose results can answer j.
	_, plan := obs.StartSpan(ctx, obs.SpanFuse)
	pred := p.opportunityGraph(batch, pending)
	var remoteIdx, localIdx []int
	for _, i := range pending {
		if len(pred[i]) == 0 {
			remoteIdx = append(remoteIdx, i)
		} else {
			localIdx = append(localIdx, i)
		}
	}

	// Phase 2: fuse projection-variant remote queries.
	groups := p.fuseGroups(batch, remoteIdx)
	plan.Finish()

	// Phase 3: one remote wave of every group's sent query. done[i] closes
	// when query i's result is cached and available.
	done := make(map[int]chan struct{}, len(remoteIdx))
	for _, i := range remoteIdx {
		done[i] = make(chan struct{})
	}
	// Phase 4: locals fire as soon as any predecessor completes.
	var wg sync.WaitGroup
	for _, j := range localIdx {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			p.answerLocal(ctx, batch, j, pred[j], done, results, errs)
		}(j)
	}
	wave := make([]*query.Query, len(groups))
	for gi, g := range groups {
		wave[gi] = p.adjust(g.sent)
	}
	start := time.Now()
	p.executeRemote(ctx, wave, func(gi int, res *exec.Result, err error) {
		g := groups[gi]
		if err != nil {
			for _, i := range g.members {
				errs[i] = err
			}
		} else {
			p.answerGroup(ctx, batch, g.members, wave[gi], res, time.Since(start), results, errs)
		}
		for _, i := range g.members {
			close(done[i])
		}
	})
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: query %d: %w", i, err)
		}
	}
	return results, nil
}

// opportunityGraph computes, for every pending query, the other pending
// queries that subsume it. Mutual subsumption (structurally equal queries)
// is broken by index order so the graph stays acyclic.
func (p *Processor) opportunityGraph(batch []*query.Query, pending []int) map[int][]int {
	pred := make(map[int][]int, len(pending))
	if p.opt.DisableIntelligentCache {
		for _, i := range pending {
			pred[i] = nil
		}
		return pred
	}
	for _, j := range pending {
		for _, i := range pending {
			if i == j {
				continue
			}
			if !cache.Subsumes(batch[i], batch[j]) {
				continue
			}
			if cache.Subsumes(batch[j], batch[i]) && i > j {
				continue // tie: the lower index is the representative
			}
			pred[j] = append(pred[j], i)
		}
	}
	// Only source nodes execute remotely, so predecessors that are
	// themselves dominated are fine: their own predecessors complete first.
	// But a local answered from a local needs its predecessor chain to
	// terminate at a source; keep only predecessors that are sources to
	// guarantee progress.
	for j, ps := range pred {
		var sources []int
		for _, i := range ps {
			if len(pred[i]) == 0 {
				sources = append(sources, i)
			}
		}
		if len(sources) > 0 {
			pred[j] = sources
		} else if len(ps) > 0 {
			// All predecessors are themselves dominated: follow one hop up.
			seen := map[int]bool{}
			var walk func(int) int
			walk = func(i int) int {
				if len(pred[i]) == 0 || seen[i] {
					return i
				}
				seen[i] = true
				return walk(pred[i][0])
			}
			pred[j] = []int{walk(ps[0])}
		}
	}
	return pred
}

// fuseGroup is a set of remote queries answered by one sent query.
type fuseGroup struct {
	members []int
	sent    *query.Query
}

// fuseGroups combines remote queries "defined over the same relation and
// potentially different with respect to their top-level projection lists"
// into single queries whose projection is the union (Sect. 3.4).
func (p *Processor) fuseGroups(batch []*query.Query, remoteIdx []int) []fuseGroup {
	if p.opt.DisableFusion {
		out := make([]fuseGroup, 0, len(remoteIdx))
		for _, i := range remoteIdx {
			out = append(out, fuseGroup{members: []int{i}, sent: batch[i]})
		}
		return out
	}
	type bucket struct {
		members []int
		fused   *query.Query
	}
	buckets := map[string]*bucket{}
	var order []string
	for _, i := range remoteIdx {
		q := batch[i]
		sig := fuseSignature(q)
		b, ok := buckets[sig]
		if !ok {
			b = &bucket{fused: q.Clone()}
			buckets[sig] = b
			order = append(order, sig)
		} else {
			mergeMeasures(b.fused, q)
			p.fusedAway.Inc()
		}
		b.members = append(b.members, i)
	}
	out := make([]fuseGroup, 0, len(order))
	for _, sig := range order {
		b := buckets[sig]
		out = append(out, fuseGroup{members: b.members, sent: b.fused})
	}
	return out
}

// fuseSignature buckets queries whose non-projection parts are identical:
// same view, same dimensions, same filters, no top-n.
func fuseSignature(q *query.Query) string {
	if q.N > 0 {
		return "topn:" + q.Key() // never fuse ranked queries
	}
	c := q.Clone()
	c.Measures = nil
	c.OrderBy = nil
	return c.Key()
}

// mergeMeasures unions src's measures into dst.
func mergeMeasures(dst, src *query.Query) {
	have := map[string]bool{}
	for _, m := range dst.Measures {
		have[string(m.Fn)+"|"+m.Col] = true
	}
	for _, m := range src.Measures {
		k := string(m.Fn) + "|" + m.Col
		if !have[k] {
			dst.Measures = append(dst.Measures, m)
			have[k] = true
		}
	}
}

// answerGroup derives each member of a fused group from the result of the
// query sent for the group.
func (p *Processor) answerGroup(ctx context.Context, batch []*query.Query, members []int, sent *query.Query, res *exec.Result, cost time.Duration, results []*exec.Result, errs []error) {
	// Each derived member is cached at the fused execution's measured cost:
	// re-running any member means re-running the fused remote query, and the
	// eviction policy ranks entries by the work a miss would cost. A
	// hardcoded nominal cost would undersell expensive fused queries and
	// evict exactly the entries worth keeping.
	_, pp := obs.StartSpan(ctx, obs.SpanPostProcess)
	defer pp.Finish()
	for _, i := range members {
		derived, err := deriveBack(sent, res, batch[i])
		if err != nil {
			errs[i] = err
			continue
		}
		results[i] = derived
		// A degraded answer is served, never stored: cached, it would come
		// back later labeled stale, or worse, as fresh.
		if !p.opt.DisableIntelligentCache && !derived.Stale {
			p.intelligent.Put(batch[i], derived, cost)
		}
	}
}

// answerLocal waits for any predecessor of j to finish, then answers j from
// the cache; if derivation unexpectedly fails it falls back to a remote
// execution.
func (p *Processor) answerLocal(ctx context.Context, batch []*query.Query, j int, preds []int, done map[int]chan struct{}, results []*exec.Result, errs []error) {
	ctx, sp := obs.StartSpan(ctx, obs.SpanLocalAnswer)
	defer sp.Finish()
	for _, i := range preds {
		ch, ok := done[i]
		if !ok {
			continue
		}
		select {
		case <-ch:
		case <-ctx.Done():
			errs[j] = ctx.Err()
			return
		}
		if res, ok := p.probeIntelligent(batch[j], &p.localAnswers); ok {
			results[j] = res
			return
		}
	}
	// Fallback: the planned derivation did not hold at runtime.
	results[j], errs[j] = p.Execute(ctx, batch[j])
}
