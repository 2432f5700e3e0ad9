package wfs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/trace"
)

// answerOutcome is everything AnswerCtxTraced reports for one call.
type answerOutcome struct {
	ans   Truth
	stats *core.AnswerStats
	err   error
}

func (o answerOutcome) String() string {
	return fmt.Sprintf("%v %+v err=%v", o.ans, o.stats, o.err)
}

// TestAnswerCtxTracedPathsAgree: the untraced call (which may take the
// warm-exact fast path) and a detailed-traced call (which always walks
// the ladder) return the same truth, the same stats, and the same error
// — on a cold snapshot and on a warm one — for a certified exact
// workload, an inexact workload that climbs rungs, and a workload the
// MaxAtoms valve truncates.
func TestAnswerCtxTracedPathsAgree(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		opts  Options
		query string
		check func(t *testing.T, o answerOutcome)
	}{
		{
			name:  "update-family",
			src:   bench.UpdateFamily(8, 6),
			query: "? win(n0_0).",
			check: func(t *testing.T, o answerOutcome) {
				if o.err != nil || !o.stats.Exact || len(o.stats.Depths) != 1 {
					t.Errorf("want a single exact rung, got %v", o)
				}
			},
		},
		{
			name:  "ladder-family",
			src:   bench.LadderFamily(20, 34),
			query: "? flip(X).",
			check: func(t *testing.T, o answerOutcome) {
				if o.err != nil || o.stats.Exact || len(o.stats.Depths) < 2 {
					t.Errorf("want an inexact answer over several rungs, got %v", o)
				}
			},
		},
		{
			name:  "budget",
			src:   "p(a).\np(X) -> s(X,Y).\ns(X,Y) -> p(Y).\ns(X,Y), not w(Y) -> w(X).",
			opts:  Options{MaxAtoms: 40, MaxDepth: 64, NoCertify: true},
			query: "? w(a).",
			check: func(t *testing.T, o answerOutcome) {
				var be *ErrBudgetExceeded
				if !errors.As(o.err, &be) {
					t.Errorf("want ErrBudgetExceeded, got %v", o)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Prepare(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			// A live (cancellable, never cancelled) context, so the
			// ladder runs with a real token on both paths.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cold := func() *Snapshot {
				sys, err := LoadWithOptions(tc.src, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				snap, err := sys.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				return snap
			}
			answer := func(snap *Snapshot, tr *trace.Span) answerOutcome {
				ans, stats, err := snap.AnswerCtxTraced(ctx, q, tr)
				return answerOutcome{ans, stats, err}
			}
			same := func(what string, got, want answerOutcome) {
				t.Helper()
				if got.ans != want.ans || !reflect.DeepEqual(got.stats, want.stats) ||
					fmt.Sprint(got.err) != fmt.Sprint(want.err) || reflect.TypeOf(got.err) != reflect.TypeOf(want.err) {
					t.Errorf("%s:\n got %v\nwant %v", what, got, want)
				}
			}

			coldPlain := answer(cold(), nil)
			tc.check(t, coldPlain)
			same("cold traced vs untraced", answer(cold(), trace.NewDetailed("q")), coldPlain)

			warm := cold()
			answer(warm, nil) // materialize the rungs the answer needs
			warmPlain := answer(warm, nil)
			same("warm untraced vs cold", warmPlain, coldPlain)
			same("warm traced vs untraced", answer(warm, trace.NewDetailed("q")), warmPlain)

			// The exact workload's warm untraced answer must actually come
			// from the fast path, or this test would not cover it.
			_, _, fast := warm.answerWarmExact(q)
			if want := tc.name == "update-family"; fast != want {
				t.Errorf("answerWarmExact ok = %v, want %v", fast, want)
			}
		})
	}
}
