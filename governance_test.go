package wfs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// endlessChainSrc is a non-terminating guarded program (existential
// p→s→p cycle) whose w(a) answer flips with the chain's parity, so the
// adaptive ladder never stabilizes: only a deadline, the atom budget,
// or the depth ceiling can end an evaluation. The cancellation tests
// use it to guarantee evaluations are genuinely in flight when their
// contexts fire.
const endlessChainSrc = `
	p(a).
	p(X) -> s(X,Y).
	s(X,Y) -> p(Y).
	s(X,Y), not w(Y) -> w(X).
`

func endlessSystem(t testing.TB) *System {
	t.Helper()
	sys, err := LoadWithOptions(endlessChainSrc, Options{MaxDepth: 1 << 14, AdaptiveStep: 1, NoCertify: true})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func isCancelClass(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// TestConcurrentCancellationRace races short-deadline cancellations
// against patient readers and mutations on one shared system: cancelled
// rung builds must install nothing (later callers rebuild them), reads
// that do finish must return sound answers, and nothing may deadlock or
// trip the race detector. Run with -race (the CI chaos job does).
func TestConcurrentCancellationRace(t *testing.T) {
	sys := endlessSystem(t)
	q, err := Prepare("? w(a).")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Cancellers: evaluations that essentially always die of their
	// deadline, racing their abandonment against everyone else's reads
	// of the same snapshot rungs.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				snap, err := sys.Snapshot()
				if err != nil {
					report(fmt.Errorf("canceller snapshot: %w", err))
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(2000))*time.Microsecond)
				_, _, err = snap.AnswerCtxTraced(ctx, q, nil)
				cancel()
				if err != nil && !isCancelClass(err) {
					report(fmt.Errorf("canceller: %w", err))
					return
				}
			}
		}(int64(g))
	}

	// Readers: more patient evaluations over the same snapshots. They
	// may still blow their deadline (the program never terminates), but
	// any error must be cancellation-class — never a corrupted rung left
	// behind by a cancelled build.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				snap, err := sys.Snapshot()
				if err != nil {
					report(fmt.Errorf("reader snapshot: %w", err))
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
				_, _, err = snap.AnswerCtxTraced(ctx, q, nil)
				cancel()
				if err != nil && !isCancelClass(err) {
					report(fmt.Errorf("reader: %w", err))
					return
				}
			}
		}()
	}

	// Mutators: epoch bumps rebasing the evaluation state mid-flight.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				d := NewDelta()
				d.Add("p", fmt.Sprintf("c%d_%d", g, i))
				if err := sys.Apply(d); err != nil {
					report(fmt.Errorf("mutator: %w", err))
					return
				}
			}
		}(g)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestCancellationLeavesSystemSound: after a burst of cancelled
// evaluations, an unbounded evaluation of a terminating program on the
// same snapshot still produces the exact answer — cancellation must
// abandon work without poisoning shared rung state.
func TestCancellationLeavesSystemSound(t *testing.T) {
	sys, err := Load(`
		move(a,b). move(b,a). move(b,c).
		move(X,Y), not win(Y) -> win(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Prepare("? win(b).")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: the ladder aborts at its first poll
		if _, _, err := snap.AnswerCtxTraced(ctx, q, nil); !isCancelClass(err) {
			t.Fatalf("pre-cancelled evaluation %d: err = %v, want cancellation", i, err)
		}
	}
	ans, err := snap.Answer(q)
	if err != nil || ans != True {
		t.Fatalf("after cancellation burst: answer = %v (%v), want true", ans, err)
	}
}

// TestDeadlineStormNoGoroutineLeak fires 100 concurrent 1ms-deadline
// evaluations of a non-terminating query and checks the process settles
// back to its baseline goroutine count: cooperative cancellation spawns
// no watcher goroutines and leaves no evaluation stuck.
func TestDeadlineStormNoGoroutineLeak(t *testing.T) {
	sys := endlessSystem(t)
	q, err := Prepare("? w(a).")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	for g := 0; g < 100; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
			defer cancel()
			if _, _, err := snap.AnswerCtxTraced(ctx, q, nil); err != nil && !isCancelClass(err) {
				t.Errorf("storm evaluation: %v", err)
			}
		}()
	}
	wg.Wait()

	// Timer internals may take a moment to unwind; poll for the settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+10 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d, baseline %d — evaluations leaked", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
