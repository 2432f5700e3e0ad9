// Package cancel provides the engine's cooperative cancellation token: a
// cheap, goroutine-free bridge from context.Context into the hot
// evaluation loops (chase expansion, modular solve, incremental rebase,
// the adaptive ladder).
//
// The design constraint is the check cost, not the cancel cost. The warm
// snapshot answer path runs in a few hundred nanoseconds, so the token
// must be checkable for approximately one predicted branch: Cancelled()
// first loads a sticky atomic flag (the only cost on the non-cancelled
// fast path once tripped state is in cache) and only then polls the
// context's Done channel with a non-blocking select — the closed check
// is lock-free, unlike ctx.Err(), which takes the context's mutex and
// collapses under concurrent polling of one shared context. No watcher
// goroutine is ever spawned — a goroutine per query would cost
// microseconds on a nanosecond path and would need its own lifecycle
// management. For the same reason tokens are pooled: For/Release
// recycle them, because even one 48-byte allocation is a measurable
// share of a warm answer.
//
// A nil *Token is valid everywhere and never cancelled, so evaluation
// code checks `tok.Cancelled()` unconditionally and callers that don't
// want cancellation pass nil.
package cancel

import (
	"context"
	"sync"
	"sync/atomic"
)

// Token is a cooperative cancellation flag shared by one evaluation and
// everything it fans out to (solver workers, chase continuations, ladder
// rungs). It trips at most once and stays tripped (until Release).
type Token struct {
	// done, when non-nil, is an external cancellation signal (normally
	// ctx.Done()). Polled non-blockingly only until tripped.
	done <-chan struct{}
	// ctx, when non-nil, supplies the cause once done is closed
	// (ctx.Err()). Consulted only after the select observes the close —
	// storing the context itself instead of a ctx.Err method value
	// avoids a second allocation per For.
	ctx context.Context

	tripped atomic.Bool
	cause   atomic.Pointer[error]
}

// New returns a manually-cancellable token not bound to any context.
func New() *Token { return &Token{} }

// pool recycles tokens between evaluations: a warm snapshot answer runs
// in a few hundred nanoseconds, so even the single 48-byte For
// allocation shows up as measurable tax on that path. Tokens only enter
// the pool through an explicit Release by a caller that can vouch no
// reference survived its evaluation.
var pool = sync.Pool{New: func() any { return new(Token) }}

// For returns a token that trips when ctx is cancelled, or nil when ctx
// can never be cancelled (context.Background and friends) — the nil
// token keeps the fully-uncancellable path at its original cost.
func For(ctx context.Context) *Token {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	t := pool.Get().(*Token)
	t.done, t.ctx = done, ctx
	return t
}

// Release resets the token and returns it to the allocation pool. Only
// the owner of the evaluation may call it, and only once everything the
// evaluation fanned out to (solver workers, rung builds) has been
// joined: evaluation state MAY keep dangling *Token pointers afterwards
// (a cached chase result retains the Options it ran under) but must
// never dereference them once construction finished — Release is what
// makes that invariant load-bearing. Safe on a nil token.
func (t *Token) Release() {
	if t == nil {
		return
	}
	t.done, t.ctx = nil, nil
	if t.tripped.Load() { // skip two atomic stores on the common untripped path
		t.tripped.Store(false)
		t.cause.Store(nil)
	}
	pool.Put(t)
}

// Cancel trips the token with the given cause. The first cause wins;
// later calls are no-ops. A nil token ignores the call.
func (t *Token) Cancel(cause error) {
	if t == nil {
		return
	}
	if cause == nil {
		cause = context.Canceled
	}
	t.cause.CompareAndSwap(nil, &cause)
	t.tripped.Store(true)
}

// Cancelled reports whether the token has tripped, polling the bound
// context if any. Safe on a nil token (always false). This is the hot-
// loop check: one atomic load, then one non-blocking select.
func (t *Token) Cancelled() bool {
	if t == nil {
		return false
	}
	if t.tripped.Load() {
		return true
	}
	if t.done != nil {
		select {
		case <-t.done:
			var cause error = context.Canceled
			if t.ctx != nil {
				if e := t.ctx.Err(); e != nil {
					cause = e
				}
			}
			t.cause.CompareAndSwap(nil, &cause)
			t.tripped.Store(true)
			return true
		default:
		}
	}
	return false
}

// Cause returns why the token tripped: context.DeadlineExceeded,
// context.Canceled, or the manual Cancel cause. It returns nil when the
// token has not tripped (or is nil).
func (t *Token) Cause() error {
	if t == nil {
		return nil
	}
	if p := t.cause.Load(); p != nil {
		return *p
	}
	if t.tripped.Load() {
		return context.Canceled
	}
	return nil
}

// Err is Cause after forcing a poll: it reports the cancellation cause
// if the token is (or has just become) cancelled, nil otherwise.
func (t *Token) Err() error {
	if t == nil || !t.Cancelled() {
		return nil
	}
	return t.Cause()
}

// Reason is the error a stopped evaluation surfaces: the token's cause
// (context.DeadlineExceeded for a blown deadline, context.Canceled for a
// disconnect or manual cancel), falling back to context.Canceled when an
// interrupted evaluation arrives without one. Safe on a nil token.
func (t *Token) Reason() error {
	if err := t.Err(); err != nil {
		return err
	}
	return context.Canceled
}
