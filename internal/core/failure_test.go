package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"vizq/internal/cache"
	"vizq/internal/query"
	"vizq/internal/remote"
	"vizq/internal/resilience"
	"vizq/internal/sched"
	"vizq/internal/tde/engine"
	"vizq/internal/tde/exec"
	"vizq/internal/tde/plan"
	"vizq/internal/tde/storage"
	"vizq/internal/workload"
)

// TestStaleFallbackMatrix runs every way a fetch can fail — one per
// resilience.Kind, see that package's TestFailureClassification — through
// every shape of the fetch path. An outage-shaped failure (transport,
// breaker open, shed) must be answered from the expired-but-in-grace cache entry,
// tagged stale; a query-level error must reach the caller even though the
// same stale entry is sitting there.
func TestStaleFallbackMatrix(t *testing.T) {
	var airports []storage.Value
	for _, a := range workload.AirportCodesList(20) {
		airports = append(airports, storage.StrValue(a))
	}
	externalized := carrierCounts()
	externalized.Filters = []query.Filter{query.InFilter("origin", airports...)}

	paths := []struct {
		name       string
		q          *query.Query
		tune       func(*Options)
		tempTables int64
	}{
		{"single-flight", carrierCounts(), func(*Options) {}, 0},
		{"single-flight off", carrierCounts(), func(o *Options) { o.DisableSingleFlight = true }, 0},
		{"externalized filter", externalized, func(o *Options) { o.MaxInlineFilterValues = 5 }, 1},
	}
	type rig struct {
		p   *Processor
		sc  *sched.Scheduler
		srv *remote.Server
		db  *storage.Database
	}
	failures := []struct {
		name      string
		inject    func(t *testing.T, r rig) context.Context
		wantStale bool
	}{
		{"transport failure", func(t *testing.T, r rig) context.Context {
			r.srv.Close()
			return context.Background()
		}, true},
		{"breaker open", func(t *testing.T, r rig) context.Context {
			r.p.Resilience().Breaker().RecordFailure()
			if st := r.p.Resilience().Breaker().State(); st != resilience.Open {
				t.Fatalf("breaker state = %v, want open", st)
			}
			return context.Background()
		}, true},
		{"shed", func(t *testing.T, r rig) context.Context {
			hold := saturate(t, r.sc)
			t.Cleanup(hold.Done)
			ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
			t.Cleanup(cancel)
			return ctx
		}, true},
		{"query error", func(t *testing.T, r rig) context.Context {
			// flights loses every column the query names.
			col, err := storage.BuildColumn("x", storage.TInt, storage.CollBinary,
				[]storage.Value{storage.IntValue(1)}, storage.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := storage.NewTable("Extract", "flights", []*storage.Column{col})
			if err != nil {
				t.Fatal(err)
			}
			r.db.Replace(tbl)
			return context.Background()
		}, false},
	}
	for _, path := range paths {
		for _, f := range failures {
			t.Run(path.name+"/"+f.name, func(t *testing.T) {
				db, err := workload.BuildFlightsDB(workload.FlightsConfig{Rows: 2000, Days: 30, Seed: 21})
				if err != nil {
					t.Fatal(err)
				}
				srv := remote.NewServer(engine.New(db), remote.Config{})
				if err := srv.Start("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				opt := DefaultOptions()
				path.tune(&opt)
				opt.Resilience = &resilience.Config{MaxAttempts: 1, BreakerMinSamples: 1,
					BreakerOpenFor: time.Hour, ServeStale: true}
				// Entries expire the instant they are stored: every repeat of
				// a query is a miss with a grace-window entry behind it.
				copt := cache.DefaultOptions()
				copt.FreshFor = time.Nanosecond
				copt.StaleGrace = time.Hour
				p, sc := newSchedProcessor(t, srv, opt, copt, sched.Config{Limit: 1})

				warm, err := p.Execute(context.Background(), path.q)
				if err != nil {
					t.Fatal(err)
				}
				if got := p.Stats().TempTables; got != path.tempTables {
					t.Fatalf("temp tables = %d, want %d", got, path.tempTables)
				}
				ctx := f.inject(t, rig{p, sc, srv, db})
				res, err := p.Execute(ctx, path.q.Clone())
				if !f.wantStale {
					if err == nil {
						t.Fatalf("query error masked by old data (stale=%v)", res.Stale)
					}
					if st := p.Stats(); st.StaleServed != 0 {
						t.Fatalf("StaleServed = %d on a query error", st.StaleServed)
					}
					return
				}
				if err != nil {
					t.Fatalf("outage with a grace entry should serve stale, got %v", err)
				}
				if !res.Stale {
					t.Fatal("degraded answer not tagged stale")
				}
				sameResult(t, res, warm)
				if st := p.Stats(); st.StaleServed != 1 || st.RemoteQueries != 1 {
					t.Fatalf("stats after degraded read: %+v", st)
				}
			})
		}
	}
}

// TestStaleFallbackByKind: which resilience.Kind qualifies for a degraded
// read, one representative error each (the full error-shape table is
// resilience's TestFailureClassification). Caller is only reachable here: a
// deadline tight enough to interrupt a fetch is shed by admission first.
func TestStaleFallbackByKind(t *testing.T) {
	lit := cache.NewLiteralCache(cache.Options{FreshFor: time.Nanosecond, StaleGrace: time.Hour})
	lit.Put("q", exec.NewResult([]plan.ColInfo{{Name: "n", Type: storage.TInt}}), time.Millisecond)
	p := NewProcessor(nil, nil, lit, Options{Resilience: &resilience.Config{ServeStale: true}})
	for _, c := range []struct {
		kind  resilience.Kind
		err   error
		stale bool
	}{
		{resilience.QueryError, errors.New("remote: no such column"), false},
		{resilience.Transport, io.EOF, true},
		{resilience.Caller, context.DeadlineExceeded, true},
		{resilience.Refused, &sched.ShedError{Reason: "deadline"}, true},
		{resilience.Refused, fmt.Errorf("breaker: %w", resilience.ErrOpen), true},
	} {
		if got := resilience.Classify(context.Background(), c.err); got != c.kind {
			t.Fatalf("Classify(%v) = %v, want %v", c.err, got, c.kind)
		}
		if _, got := p.staleFallback(context.Background(), carrierCounts(), "q", c.err); got != c.stale {
			t.Errorf("kind %v: stale served = %v, want %v", c.kind, got, c.stale)
		}
	}
}
