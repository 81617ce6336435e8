package main

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"vizq/internal/tde/exec"
	"vizq/internal/tde/storage"
	"vizq/internal/vizql"
)

// interactionsPerSession is the clicks that follow a session's initial load.
const interactionsPerSession = 4

// zipfS is the skew of the click distribution over a zone's top-K rows.
const zipfS = 1.1

// step is one click, still unresolved: which source zone, and which of its
// candidate rows. The values come from the zone's result at run time, so the
// program under test only ever receives generated queries and selections.
type step struct {
	Source string
	Rank   int     // single select: Zipf rank into the top-K candidates
	Count  int     // multi-select: how many values (0 = single select)
	Start  float64 // multi-select: window start, as a share of the room left
}

// sessionPlan is one session: a dashboard, a tenant (Data Server only), four clicks.
type sessionPlan struct {
	Dash  int
	User  int
	Steps [interactionsPerSession]step
}

// planner is a client's deterministic stream of sessions.
type planner struct {
	spec *workloadSpec
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
	// firstUser is the tenant of the stream's first session.
	firstUser int
}

func newPlanner(spec *workloadSpec, seed int64, client int) *planner {
	h := fnv.New64a()
	h.Write([]byte(spec.Name))
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(h.Sum64()%1_000_000)*10_000 + int64(client)))
	p := &planner{spec: spec, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(spec.TopK-1))}
	if spec.Users > 0 {
		p.firstUser = rng.Intn(spec.Users)
	}
	return p
}

func (p *planner) next() sessionPlan {
	// Two sessions in three open the first dashboard. An even split would
	// put the median load on the gap between the two dashboards' load times,
	// where a handful of samples decide which side it reads.
	pl := sessionPlan{}
	if len(p.spec.Dashboards) > 1 && p.n%3 == 2 {
		pl.Dash = 1
	}
	p.n++
	if p.spec.Users > 0 {
		// Tenants take turns, from a start that differs per stream: every
		// tenant's sessions are equally frequent in every run.
		pl.User = (p.firstUser + p.n) % p.spec.Users
	}
	// The clicks cycle through the dashboard's action sources from a random
	// start, so every session exercises every action and two streams differ
	// in what is selected, not in how often each action fires.
	sources := actionSources(p.spec.Dashboards[pl.Dash])
	first := p.rng.Intn(len(sources))
	for i := range pl.Steps {
		src := sources[(first+i)%len(sources)]
		st := step{Source: src.zone, Rank: int(p.zipf.Uint64())}
		if base := p.spec.Multi[src.zone]; base > 0 {
			st.Count = base + p.rng.Intn(base/3)
			st.Start = p.rng.Float64()
		}
		pl.Steps[i] = st
	}
	return pl
}

// source is a zone whose selection drives a filter action.
type source struct{ zone, col string }

// actionSources lists a dashboard's action sources once each, in action order.
func actionSources(d *vizql.Dashboard) []source {
	var out []source
	for _, a := range d.Actions {
		seen := false
		for _, s := range out {
			seen = seen || strings.EqualFold(s.zone, a.Source)
		}
		if !seen {
			out = append(out, source{zone: a.Source, col: a.Col})
		}
	}
	return out
}

// candidates ranks a source zone's rows by its first measure, descending
// (ties by value), and returns the action column's values of the top k;
// k <= 0 returns them all.
func candidates(res *exec.Result, col string, k int) []storage.Value {
	if res == nil {
		return nil
	}
	ci := res.ColumnIndex(col)
	if ci < 0 {
		return nil
	}
	mi := len(res.Cols) - 1
	for c, info := range res.Schema {
		if c != ci && (info.Type == storage.TInt || info.Type == storage.TFloat) {
			mi = c
			break
		}
	}
	rows := make([]int, res.N)
	for i := range rows {
		rows[i] = i
	}
	sort.Slice(rows, func(a, b int) bool {
		if c := storage.Compare(res.Value(rows[a], mi), res.Value(rows[b], mi), storage.CollBinary); c != 0 {
			return c > 0
		}
		return res.Value(rows[a], ci).String() < res.Value(rows[b], ci).String()
	})
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	out := make([]storage.Value, 0, len(rows))
	for _, r := range rows {
		if v := res.Value(r, ci); !v.Null {
			out = append(out, v)
		}
	}
	return out
}

// resolve turns a step into the values to select, given the source zone's
// candidate rows.
func (st step) resolve(top, all []storage.Value) []storage.Value {
	if st.Count > 0 {
		n := st.Count
		if n > len(all) {
			n = len(all)
		}
		start := int(st.Start * float64(len(all)-n+1))
		return all[start : start+n]
	}
	if len(top) == 0 {
		return nil
	}
	return top[st.Rank%len(top) : st.Rank%len(top)+1]
}
