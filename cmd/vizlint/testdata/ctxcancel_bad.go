package fixture

import (
	"context"
	"errors"
	"time"
)

// EarlyReturnCancel leaks the cancel func on the error path: only the
// happy path calls it. (1 finding)
func EarlyReturnCancel(ctx context.Context, fail bool) error {
	ctx, cancel := context.WithTimeout(ctx, time.Second) // want: ctxcancel (cancel uncalled on the early return)
	if fail {
		return errors.New("bailed before cancel")
	}
	use(ctx)
	cancel()
	return nil
}

// FallThroughCancel derives a deadline context and never cancels it at
// all. (1 finding)
func FallThroughCancel(ctx context.Context) {
	ctx, cancel := context.WithDeadline(ctx, time.Unix(0, 0)) // want: ctxcancel (cancel never called)
	use(ctx)
}

// ReboundCancel rebinds the cancel variable while the first timer is
// still live: nothing can ever release the orphan. (1 finding)
func ReboundCancel(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, time.Second) // want: ctxcancel (cancel rebound before being called)
	ctx, cancel = context.WithTimeout(ctx, time.Minute)
	use(ctx)
	cancel()
}

// DeferOnlyInOneBranch schedules the cancel in the hot branch but falls
// through without it in the other. (1 finding)
func DeferOnlyInOneBranch(ctx context.Context, hot bool) {
	ctx, cancel := context.WithTimeout(ctx, time.Second) // want: ctxcancel (cancel deferred on one branch only)
	if hot {
		defer cancel()
	}
	use(ctx)
}

func use(ctx context.Context) { _ = ctx }
