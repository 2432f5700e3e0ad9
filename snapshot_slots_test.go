package wfs

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/atom"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/program"
)

// TestCertifiedSnapshotBuildsOnce: on a certified program the ladder's one
// rung and the configured depth coincide, so Answer and Select share one
// model — one build — and a mutation rebases it once.
func TestCertifiedSnapshotBuildsOnce(t *testing.T) {
	sys, err := Load(gameSrc)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.opts.CertifiedDepth <= 0 {
		t.Fatalf("game program not certified: %+v", snap.opts)
	}
	q, err := Prepare("win(b)")
	if err != nil {
		t.Fatal(err)
	}
	if tv, err := snap.Answer(q); err != nil || tv != True {
		t.Fatalf("win(b) = %v (%v), want true", tv, err)
	}
	sq, err := Prepare("win(X)")
	if err != nil {
		t.Fatal(err)
	}
	if _, rows, err := snap.Select(sq); err != nil || len(rows) != 1 {
		t.Fatalf("select win(X) = %v (%v), want one row", rows, err)
	}
	if got := sys.Metrics().Read(); got.Builds != 1 || got.Rebases != 0 {
		t.Fatalf("after Answer+Select: builds=%d rebases=%d, want 1 and 0", got.Builds, got.Rebases)
	}

	if err := sys.RetractFact("move", "b", "c"); err != nil {
		t.Fatal(err)
	}
	next, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	next.WarmRebased(nil)
	if got := sys.Metrics().Read(); got.Builds != 2 || got.Rebases != 1 {
		t.Fatalf("after one mutation: builds=%d rebases=%d, want 2 and 1", got.Builds, got.Rebases)
	}
	if tv, err := next.TruthOf("win(b)"); err != nil || tv != Undefined {
		t.Errorf("win(b) after retracting move(b,c) = %v (%v), want undefined", tv, err)
	}
}

// TestConfiguredDepthSlotServesLadder: with default options the
// configured depth (8) is a ladder rung, so a Select at depth 8 followed by
// a ladder climb past it builds every other rung but reuses depth 8's
// model.
func TestConfiguredDepthSlotServesLadder(t *testing.T) {
	sys, err := Load(bench.LadderFamily(2, 34))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.opts.Depth != 8 || snap.slot(8) == nil {
		t.Fatalf("configured depth %d has no ladder slot: %+v", snap.opts.Depth, snap.opts)
	}
	sq, err := Prepare("a0(X)")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := snap.Select(sq); err != nil {
		t.Fatal(err)
	}
	if got := sys.Metrics().Read().Builds; got != 1 {
		t.Fatalf("builds after Select = %d, want 1", got)
	}
	m8 := snap.slot(8).m

	q, err := Prepare("flip(X)")
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := snap.AnswerCtxTraced(t.Context(), q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(stats.Depths, 8) || stats.FinalDepth <= 8 {
		t.Fatalf("ladder did not climb past depth 8: %v", stats.Depths)
	}
	if got, want := sys.Metrics().Read().Builds, int64(len(stats.Depths)); got != want {
		t.Errorf("builds after a %d-rung climb = %d, want %d (depth 8 reused)", len(stats.Depths), got, want)
	}
	if snap.slot(8).m != m8 {
		t.Errorf("the ladder rebuilt the depth-8 model")
	}
}

// TestOffScheduleConfiguredDepth: a configured depth off the ladder
// schedule (5, between rungs 4 and 6) or below its start (2) gets its own
// slot in ascending place, and Select/TruthOf there agree with a fresh
// core.Evaluate at that depth.
func TestOffScheduleConfiguredDepth(t *testing.T) {
	for _, tc := range []struct {
		depth int
		slots []int
	}{
		{5, []int{4, 5, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24}},
		{2, []int{2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24}},
	} {
		t.Run(fmt.Sprintf("depth-%d", tc.depth), func(t *testing.T) {
			opts := Options{Depth: tc.depth}
			sys, err := LoadWithOptions(example4Src, opts)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var depths []int
			for _, sm := range snap.models {
				depths = append(depths, sm.depth)
			}
			if !slices.Equal(depths, tc.slots) {
				t.Fatalf("slots = %v, want %v", depths, tc.slots)
			}
			// Climb the ladder first, so the configured slot may resume a
			// shallower rung's chase rather than evaluate fresh.
			q, err := Prepare("? t(X).")
			if err != nil {
				t.Fatal(err)
			}
			if tv, err := snap.Answer(q); err != nil || tv != True {
				t.Fatalf("t(X) = %v (%v), want true", tv, err)
			}

			// A fresh evaluation at the configured depth, on an
			// independent system's frozen store.
			scratchSys, err := LoadWithOptions(example4Src, opts)
			if err != nil {
				t.Fatal(err)
			}
			base, err := scratchSys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ost := atom.NewOverlay(base.store)
			scratch := core.Evaluate(base.prog.WithStore(ost), base.db, opts, tc.depth, nil, nil)
			ost.Freeze()
			for _, src := range []string{"? t(X).", "? p(X,Y).", "? s(X).", "? r(X,Y,Z)."} {
				pq, err := Prepare(src)
				if err != nil {
					t.Fatal(err)
				}
				_, got, err := snap.Select(pq)
				if err != nil {
					t.Fatal(err)
				}
				cq, err := program.CompileQuery(pq.ast, atom.NewOverlay(scratch.Chase.Prog.Store))
				if err != nil {
					t.Fatal(err)
				}
				var want [][]string
				for _, tup := range scratch.Select(cq) {
					row := make([]string, len(tup))
					for j, id := range tup {
						row[j] = scratch.Chase.Prog.Store.Terms.String(id)
					}
					want = append(want, row)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("Select %s = %v, want %v", src, got, want)
				}
			}
			for _, a := range []string{"t(0)", "s(0)", "p(0,0)", "p(0,1)", "r(0,0,1)", "q(1)"} {
				got, err := snap.TruthOf(a)
				if err != nil {
					t.Fatal(err)
				}
				g, _, err := snap.groundAtom(scratch, a)
				if err != nil {
					t.Fatal(err)
				}
				if want := scratch.Truth(g); got != want {
					t.Errorf("TruthOf(%s) = %v, want %v", a, got, want)
				}
			}
			if got := snap.Stats().Model.Depth; got != tc.depth {
				t.Errorf("Stats depth = %d, want %d", got, tc.depth)
			}
		})
	}
}

// TestSlotsConcurrentLadderAndConfiguredReads: ladder climbs and
// configured-depth reads racing on one cold snapshot build each slot once
// and agree with a sequential read of a twin snapshot, whichever build
// route (fresh, or resumed from a shallower slot) each slot took.
func TestSlotsConcurrentLadderAndConfiguredReads(t *testing.T) {
	opts := Options{Depth: 5}
	twin, err := LoadWithOptions(example4Src, opts)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Prepare("? t(X).")
	if err != nil {
		t.Fatal(err)
	}
	sq, err := Prepare("? p(X,Y).")
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.snapshot().Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	_, wantRows, err := twin.snapshot().Select(sq)
	if err != nil {
		t.Fatal(err)
	}

	sys, err := LoadWithOptions(example4Src, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				if tv, err := snap.Answer(q); err != nil || tv != want {
					t.Errorf("t(X) = %v (%v), want %v", tv, err, want)
				}
				return
			}
			if _, rows, err := snap.Select(sq); err != nil || fmt.Sprint(rows) != fmt.Sprint(wantRows) {
				t.Errorf("select p(X,Y) = %v (%v), want %v", rows, err, wantRows)
			}
		}(g)
	}
	wg.Wait()
	built := 0
	for _, sm := range snap.models {
		if sm.done.Load() {
			built++
		}
	}
	if got := sys.Metrics().Read().Builds; got != int64(built) {
		t.Errorf("builds = %d, want one per materialized slot (%d)", got, built)
	}
}
