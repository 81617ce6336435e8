package fixture

import (
	"context"
	"errors"

	"vizq/internal/obs"
)

// EarlyReturn leaks its span on the error path: only the happy path
// finishes it. (1 finding)
func EarlyReturn(ctx context.Context, fail bool) error {
	_, sp := obs.StartSpan(ctx, "work") // want: obs (span unfinished on the early return)
	if fail {
		return errors.New("bailed before Finish")
	}
	sp.Finish()
	return nil
}

// FallThrough starts a span and never finishes it at all. (1 finding)
func FallThrough(ctx context.Context) {
	_, sp := obs.StartSpan(ctx, "forgotten") // want: obs (span never finished)
	sp.Duration()
}

// Restarted rebinds the span variable while the first span is still open:
// nothing can ever finish the orphan. (1 finding)
func Restarted(ctx context.Context) {
	ctx, sp := obs.StartSpan(ctx, "first") // want: obs (span restarted before Finish)
	ctx, sp = obs.StartSpan(ctx, "second")
	_ = ctx
	sp.Finish()
}

// DeferOnlySometimes schedules the Finish in one branch but falls through
// without it in the other. (1 finding)
func DeferOnlySometimes(ctx context.Context, hot bool) {
	_, sp := obs.StartSpan(ctx, "maybe") // want: obs (Finish deferred on one branch only)
	if hot {
		defer sp.Finish()
	}
}

// FieldRead reads the span's name and never finishes it: a field read is
// a use, not a hand-off. (1 finding)
func FieldRead(ctx context.Context, log func(string)) {
	_, sp := obs.StartSpan(ctx, "named") // want: obs (span never finished; reading Name is no escape)
	log(sp.Name)
}
