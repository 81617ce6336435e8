package fixture

import (
	"context"
	"errors"

	"vizq/internal/obs"
)

// DeferFinish is the canonical pattern: every return path runs the defer.
func DeferFinish(ctx context.Context, fail bool) error {
	ctx, sp := obs.StartSpan(ctx, "work")
	defer sp.Finish()
	sp.Duration()
	if fail {
		return errors.New("covered by the defer")
	}
	_ = ctx
	return nil
}

// ExplicitOnAllPaths finishes by hand on both the early and the late path.
func ExplicitOnAllPaths(ctx context.Context, fast bool) {
	_, sp := obs.StartSpan(ctx, "probe")
	if fast {
		sp.Finish()
		return
	}
	sp.Finish()
}

// NamedThenFinished reads the span's fields before finishing it.
func NamedThenFinished(ctx context.Context, log func(string)) {
	_, sp := obs.StartSpan(ctx, "named")
	log(sp.Name + sp.Start.String())
	sp.Finish()
}

// PassedAlong hands the span to a helper, which owns finishing it.
func PassedAlong(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "handoff")
	finishLater(sp)
}

func finishLater(sp *obs.Span) { sp.Finish() }

// ReturnedSpan gives the caller ownership.
func ReturnedSpan(ctx context.Context) *obs.Span {
	_, sp := obs.StartSpan(ctx, "caller-owned")
	return sp
}

// FinishedInGoroutine completes the span on another goroutine's schedule.
func FinishedInGoroutine(ctx context.Context, done chan struct{}) {
	_, sp := obs.StartSpan(ctx, "async")
	go func() {
		<-done
		sp.Finish()
	}()
}

// WrappedDefer uses the closure form of the deferred release.
func WrappedDefer(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "wrapped")
	defer func() {
		sp.Duration()
		sp.Finish()
	}()
}

// Suppressed documents an intentional leak with a directive.
func Suppressed(ctx context.Context) {
	//vizlint:allow obs -- fixture: span intentionally dropped
	_, sp := obs.StartSpan(ctx, "intentional")
	sp.Duration()
}
