package wfs

// One testing.B benchmark per experiment of the reproduction index
// (DESIGN.md §5). The wfsbench tool prints the same sweeps as tables with
// derived columns; these benches make the raw timings reproducible via
// `go test -bench=. -benchmem`.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/atom"
	"repro/internal/bench"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/strat"
	"repro/internal/term"
	"repro/internal/trace"
)

func mustCompile(b *testing.B, src string) (*program.Program, program.Database, *atom.Store) {
	b.Helper()
	st := atom.NewStore(term.NewStore())
	prog, db, _, err := program.CompileText(src, st)
	if err != nil {
		b.Fatal(err)
	}
	return prog, db, st
}

// BenchmarkE1DataComplexityWinMove — Thm. 13/14(3): PTIME data complexity.
// Time per evaluation should scale near-linearly with |D|.
func BenchmarkE1DataComplexityWinMove(b *testing.B) {
	for _, n := range []int{512, 1024, 2048, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := bench.WinMoveRandom(n, 2*n, 42)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prog, db, _ := mustCompile(b, src)
				core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
			}
		})
	}
}

// BenchmarkE1DataComplexityEmployment — the Example 2 family scaled.
func BenchmarkE1DataComplexityEmployment(b *testing.B) {
	for _, n := range []int{300, 600, 1200} {
		b.Run(fmt.Sprintf("persons=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := atom.NewStore(term.NewStore())
				prog, db, err := bench.EmploymentFamily(n).Compile(st)
				if err != nil {
					b.Fatal(err)
				}
				core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
			}
		})
	}
}

// BenchmarkE2CombinedComplexity — Thm. 13 EXPTIME (bounded arity): time
// grows exponentially with the number of rules in the ExpChase family.
func BenchmarkE2CombinedComplexity(b *testing.B) {
	for _, k := range []int{6, 8, 10, 12} {
		b.Run(fmt.Sprintf("rules=%d", 2*k), func(b *testing.B) {
			src := bench.ExpChase(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prog, db, _ := mustCompile(b, src)
				core.Evaluate(prog, db, core.Options{}, k+2, nil, nil)
			}
		})
	}
}

// BenchmarkE3ArityScaling — Thm. 13 2-EXPTIME (unbounded arity): the w!
// universe of the permutation family.
func BenchmarkE3ArityScaling(b *testing.B) {
	for _, w := range []int{3, 4, 5, 6} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			src := bench.PermFamily(w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prog, db, _ := mustCompile(b, src)
				core.Evaluate(prog, db, core.Options{MaxAtoms: 8_000_000}, w*w+2, nil, nil)
			}
		})
	}
}

// BenchmarkE4TransfiniteIteration — Ex. 9: deeper truncations need more
// fixpoint rounds (the ŴP,ω+2 shadow).
func BenchmarkE4TransfiniteIteration(b *testing.B) {
	for _, d := range []int{8, 16, 32, 64} {
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			prog, db, _ := mustCompile(b, bench.Example4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Evaluate(prog, db, core.Options{}, d, nil, nil)
			}
		})
	}
}

// BenchmarkE5StratifiedCoincidence — WFS vs the stratified baseline on the
// same stratified program: the overhead of the alternating fixpoint.
func BenchmarkE5StratifiedCoincidence(b *testing.B) {
	src := bench.StratifiedFamily(2000)
	b.Run("wfs", func(b *testing.B) {
		prog, db, _ := mustCompile(b, src)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.Evaluate(prog, db, core.Options{}, core.DefaultDepth, nil, nil)
		}
	})
	b.Run("stratified", func(b *testing.B) {
		prog, db, _ := mustCompile(b, src)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := strat.Evaluate(prog, db, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6PositiveCoincidence — WFS vs the bare chase on positive
// guarded Datalog±.
func BenchmarkE6PositiveCoincidence(b *testing.B) {
	src := bench.ReachChain(4000)
	b.Run("chase", func(b *testing.B) {
		prog, db, _ := mustCompile(b, src)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			chase.Run(prog, db, chase.Options{MaxDepth: 4002, MaxAtoms: 8_000_000})
		}
	})
	b.Run("wfs", func(b *testing.B) {
		prog, db, _ := mustCompile(b, src)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.Evaluate(prog, db, core.Options{MaxAtoms: 8_000_000}, 4002, nil, nil)
		}
	})
}

// BenchmarkE7GoalDirected — §4 WCHECK: goal-directed membership vs the
// saturated fixpoint on a many-component instance.
func BenchmarkE7GoalDirected(b *testing.B) {
	prog, db, st := mustCompile(b, bench.WinMoveComponents(200, 30))
	m := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	p, _ := st.LookupPred("win")
	goal := st.Atom(p, []term.ID{st.Terms.Const("n0_0")})
	b.Run("full-fixpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ground.AlternatingFixpoint(m.GP)
		}
	})
	b.Run("wcheck", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.WCheck(goal)
		}
	})
}

// BenchmarkE8DepthStabilization — Prop. 12: adaptive answering of an NBCQ
// including the deepening loop.
func BenchmarkE8DepthStabilization(b *testing.B) {
	prog, db, st := mustCompile(b, bench.Example4)
	q, err := program.ParseQuery("? t(X).", st)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ans, _, err := core.AdaptiveAnswer(core.Options{}, resumableLadder(prog, db, core.Options{}),
			func(*core.Model) (*program.Query, error) { return q, nil }, nil, nil); err != nil || ans != ground.True {
			b.Fatal("wrong answer")
		}
	}
}

// resumableLadder returns an AdaptiveAnswer model source over one program
// and database that keeps every rung's model, each deeper rung extending
// the deepest chase so far (core.ExtendModel): the single-goroutine
// counterpart of a snapshot's chained rungs.
func resumableLadder(prog *program.Program, db program.Database, opts core.Options) func(int, *trace.Span) (*core.Model, error) {
	models := make(map[int]*core.Model)
	var deepest *core.Model
	return func(d int, tr *trace.Span) (*core.Model, error) {
		if m, ok := models[d]; ok {
			return m, nil
		}
		var m *core.Model
		if deepest == nil || d < deepest.Chase.Opts.MaxDepth {
			m = core.Evaluate(prog, db, opts, d, nil, tr)
		} else {
			m = core.ExtendModel(deepest, prog, opts, d, nil, tr)
		}
		if deepest == nil || d > deepest.Chase.Opts.MaxDepth {
			deepest = m
		}
		models[d] = m
		return m, nil
	}
}

// BenchmarkE9DLLite — Ex. 2 at scale: ontology translation + WFS.
func BenchmarkE9DLLite(b *testing.B) {
	for _, n := range []int{30, 300, 3000} {
		b.Run(fmt.Sprintf("persons=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				st := atom.NewStore(term.NewStore())
				prog, db, err := bench.EmploymentFamily(n).Compile(st)
				if err != nil {
					b.Fatal(err)
				}
				core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
			}
		})
	}
}

// BenchmarkParallelAnswer — the snapshot redesign's headline number: N
// goroutines answering one prepared query against a single shared
// Snapshot (lock-free reads over precomputed models) versus the same
// workload through the pre-snapshot locked path, where every Answer takes
// an exclusive lock, re-parses, and re-runs adaptive deepening against the
// shared store. Run with -cpu=8 to reproduce the PR numbers.
func BenchmarkParallelAnswer(b *testing.B) {
	src := bench.WinMoveRandom(1000, 2000, 9)
	const query = "? move(X,Y), not win(Y)."

	b.Run("snapshot", func(b *testing.B) {
		sys, err := Load(src)
		if err != nil {
			b.Fatal(err)
		}
		snap, err := sys.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		q, err := Prepare(query)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snap.Answer(q); err != nil { // warm models + compile cache
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if ans, err := snap.Answer(q); err != nil || ans != True {
					b.Errorf("answer = %v (%v)", ans, err)
					return
				}
			}
		})
	})

	// recorder — the flight-recorder tax on the same warm path: every
	// answer is followed by a Record offer against a full reservoir, the
	// server's steady state, where an unretained request costs one atomic
	// increment plus one PRNG draw and never snapshots the span tree.
	// benchguard.sh compares this against the snapshot sub-bench from the
	// same run (budget: <= 5%).
	b.Run("recorder", func(b *testing.B) {
		sys, err := Load(src)
		if err != nil {
			b.Fatal(err)
		}
		snap, err := sys.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		q, err := Prepare(query)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snap.Answer(q); err != nil {
			b.Fatal(err)
		}
		rec := trace.NewRecorder(16, 0)
		for i := 0; i < 64; i++ { // fill the reservoir: steady-state reject path
			rec.Record(&trace.RequestTrace{TraceID: fmt.Sprintf("%032x", i), Status: 200, DurationUS: 100})
		}
		rt := &trace.RequestTrace{TraceID: strings.Repeat("ab", 16), Status: 200, DurationUS: 100}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if ans, err := snap.Answer(q); err != nil || ans != True {
					b.Errorf("answer = %v (%v)", ans, err)
					return
				}
				rec.Record(rt)
			}
		})
	})

	// cancelcheck — the cooperative-cancellation tax on the same warm
	// path: the identical workload answered through AnswerCtxTraced under
	// a live (cancellable, never cancelled) context, so every poll point
	// pays the real check — a non-blocking channel select — instead of
	// the nil-context fast path.
	// benchguard.sh compares this against the snapshot sub-bench from
	// the same run (budget: <= 5%, the ISSUE's overhead bar).
	b.Run("cancelcheck", func(b *testing.B) {
		sys, err := Load(src)
		if err != nil {
			b.Fatal(err)
		}
		snap, err := sys.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		q, err := Prepare(query)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := snap.Answer(q); err != nil { // warm models + compile cache
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if ans, _, err := snap.AnswerCtxTraced(ctx, q, nil); err != nil || ans != True {
					b.Errorf("answer = %v (%v)", ans, err)
					return
				}
			}
		})
	})

	b.Run("locked", func(b *testing.B) {
		// The pre-snapshot design, reconstructed: one per-depth model
		// cache over one shared store behind one exclusive lock; query
		// answering re-parses (it interns into the shared store) and
		// re-walks the deepening ladder because nothing can be
		// precomputed safely.
		st := atom.NewStore(term.NewStore())
		prog, db, _, err := program.CompileText(src, st)
		if err != nil {
			b.Fatal(err)
		}
		modelAt := resumableLadder(prog, db, core.Options{})
		var mu sync.Mutex
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				mu.Lock()
				q, err := program.ParseQuery(query, st)
				if err != nil {
					mu.Unlock()
					b.Error(err)
					return
				}
				ans, _, _ := core.AdaptiveAnswer(core.Options{}, modelAt,
					func(*core.Model) (*program.Query, error) { return q, nil }, nil, nil)
				mu.Unlock()
				if ans != ground.True {
					b.Errorf("answer = %v", ans)
					return
				}
			}
		})
	})
}

// BenchmarkTraceOverhead — the observability tax on the hot query path:
// the same warm-snapshot query answered with tracing disabled (the
// production default, one nil check per hook site), with a coarse trace
// (the server's slow-query-log mode), and with a detailed trace
// (?trace=1 / wfsquery -trace, which adds per-SCC timings and frontier
// profiles). The acceptance bar is disabled-tracing within 5% of the
// pre-instrumentation BenchmarkParallelAnswer/snapshot number;
// BENCH_trace.json records the committed comparison.
func BenchmarkTraceOverhead(b *testing.B) {
	src := bench.WinMoveRandom(1000, 2000, 9)
	const query = "? move(X,Y), not win(Y)."
	sys, err := Load(src)
	if err != nil {
		b.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	q, err := Prepare(query)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := snap.Answer(q); err != nil { // warm models + compile cache
		b.Fatal(err)
	}

	b.Run("untraced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ans, err := snap.Answer(q); err != nil || ans != True {
				b.Fatalf("answer = %v (%v)", ans, err)
			}
		}
	})
	traced := func(b *testing.B, newRoot func(string) *trace.Span) {
		for i := 0; i < b.N; i++ {
			root := newRoot("query")
			ans, _, err := snap.AnswerCtxTraced(context.Background(), q, root)
			if err != nil || ans != True {
				b.Fatalf("answer = %v (%v)", ans, err)
			}
			root.Trace()
		}
	}
	b.Run("traced-coarse", func(b *testing.B) { traced(b, trace.New) })
	b.Run("traced-detailed", func(b *testing.B) { traced(b, trace.NewDetailed) })
}

// BenchmarkAdaptiveLadder — the resumable-chase headline number: one cold
// AnswerCtxTraced on a non-saturating program whose answer flips at every
// rung, so adaptive deepening climbs the full ladder to MaxDepth.
//
//   - "incremental" is the real path: the snapshot's rungs share one
//     chained-overlay chase — rung k+1 extends rung k's frontier
//     (chase.Result.Extend) and appends to its grounding
//     (ground.ExtendFromChase) instead of re-deriving it.
//   - "from-scratch" reconstructs the pre-resumable design: every rung
//     runs a private full chase, regrounding, and fixpoint, discarding
//     all work done by shallower rungs.
//
// The acceptance bar for the resumable chase is incremental ≥ 2× faster;
// BENCH_ladder.json records the committed baseline.
func BenchmarkAdaptiveLadder(b *testing.B) {
	src := bench.LadderFamily(400, 34)
	const query = "? flip(X)."
	ladderOpts := core.Options{MaxDepth: 32}

	b.Run("incremental", func(b *testing.B) {
		q, err := Prepare(query)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			sys, err := LoadWithOptions(src, ladderOpts)
			if err != nil {
				b.Fatal(err)
			}
			snap, err := sys.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			ans, stats, err := snap.AnswerCtxTraced(context.Background(), q, nil)
			if err != nil || ans != True {
				b.Fatalf("flip(X) = %v (%v)", ans, err)
			}
			if stats.FinalDepth < 32 || stats.Exact {
				b.Fatalf("ladder did not climb: %+v", stats)
			}
		}
	})

	b.Run("from-scratch", func(b *testing.B) {
		// The pre-resumable evaluation, reconstructed: chase from
		// the database, reground, and re-run the fixpoint at every rung.
		opts := ladderOpts.WithDefaults()
		for i := 0; i < b.N; i++ {
			st := atom.NewStore(term.NewStore())
			prog, db, _, err := program.CompileText(src, st)
			if err != nil {
				b.Fatal(err)
			}
			q, err := program.ParseQuery(query, st)
			if err != nil {
				b.Fatal(err)
			}
			modelAt := func(d int, _ *trace.Span) (*core.Model, error) {
				res := chase.Run(prog, db, chase.Options{MaxDepth: d, MaxAtoms: opts.MaxAtoms})
				gp := ground.FromChase(res)
				gm := ground.AlternatingFixpoint(gp)
				m := &core.Model{Chase: res, GP: gp, GM: gm,
					Exact: !res.Truncated && res.ComputeStats().MaxDepth < d}
				if m.Exact {
					m.UsableDepth = -1
				} else {
					m.UsableDepth = d - opts.GuardBand
				}
				return m, nil
			}
			ans, stats, err := core.AdaptiveAnswer(opts, modelAt,
				func(*core.Model) (*program.Query, error) { return q, nil }, nil, nil)
			if err != nil || ans != ground.True {
				b.Fatalf("flip(X) = %v (%v)", ans, err)
			}
			if stats.FinalDepth < 32 || stats.Exact {
				b.Fatalf("ladder did not climb: %+v", stats)
			}
		}
	})
}

// BenchmarkCertifiedAnswer — the workload is bench.UpdateFamily bulk data
// plus a 12-link derivation chain whose guard graph certifies the whole
// program at chase depth 12. "certified" is the default load: one exact
// rung at the certified depth. "heuristic" opts out with NoCertify and
// climbs the adaptive ladder; the stability window is widened past the
// schedule because with the default window the ladder stops early on a
// stable-but-wrong False for the deep tail (the incompleteness the
// certificate removes), so saturation is the only heuristic configuration
// that matches the certified answer. Each iteration is a cold load plus
// one query on the deep tail. BENCH_analysis.json records the committed
// comparison.
func BenchmarkCertifiedAnswer(b *testing.B) {
	src := bench.UpdateFamily(400, 6) + chainSrc(12)
	const query = "? d12(c2)."

	b.Run("certified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := Load(src)
			if err != nil {
				b.Fatal(err)
			}
			ans, stats, err := answerStats(sys, query)
			if err != nil || ans != True {
				b.Fatalf("d12(c2) = %v (%v)", ans, err)
			}
			if !stats.Exact || len(stats.Depths) != 1 {
				b.Fatalf("certified answer not single exact rung: %+v", stats)
			}
		}
	})

	b.Run("heuristic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys, err := LoadWithOptions(src, Options{NoCertify: true, StabilityWindow: 99})
			if err != nil {
				b.Fatal(err)
			}
			ans, stats, err := answerStats(sys, query)
			if err != nil || ans != True {
				b.Fatalf("d12(c2) = %v (%v)", ans, err)
			}
			if len(stats.Depths) <= 1 {
				b.Fatalf("heuristic ladder took %v — expected multiple rungs", stats.Depths)
			}
		}
	})
}

// BenchmarkRenderFacts — TrueFacts/UndefinedFacts used to render and sort
// under the system's exclusive lock; they now render from the snapshot
// with a preallocated output slice and no lock held, so N goroutines
// render in parallel.
func BenchmarkRenderFacts(b *testing.B) {
	sys, err := Load(bench.WinMoveRandom(2000, 4000, 7))
	if err != nil {
		b.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	snap.TrueFacts() // build the model once
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(snap.TrueFacts()) == 0 {
				b.Fatal("no facts")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if len(snap.TrueFacts()) == 0 {
					b.Error("no facts")
					return
				}
			}
		})
	})
}

// BenchmarkWriteDuringRender measures AddFact latency while renderers
// continuously stream TrueFacts from current snapshots: the proof that
// rendering no longer holds the write lock. Under the old design each
// render blocked writers for its full duration; now a write waits only on
// snapshot construction.
func BenchmarkWriteDuringRender(b *testing.B) {
	sys, err := Load(bench.WinMoveRandom(500, 1000, 7))
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if snap, err := sys.Snapshot(); err == nil {
					snap.TrueFacts()
				}
			}
		}()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.AddFact("move", fmt.Sprintf("w%d", i), "n0"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
}

// --- micro-benchmarks for the substrates ---

func BenchmarkChaseExample4(b *testing.B) {
	prog, db, _ := mustCompile(b, bench.Example4)
	for i := 0; i < b.N; i++ {
		chase.Run(prog, db, chase.Options{MaxDepth: 16, MaxAtoms: 1_000_000})
	}
}

func BenchmarkAlternatingFixpoint(b *testing.B) {
	prog, db, _ := mustCompile(b, bench.WinMoveRandom(2000, 4000, 7))
	res := chase.Run(prog, db, chase.Options{MaxDepth: 8, MaxAtoms: 1_000_000})
	gp := ground.FromChase(res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ground.AlternatingFixpoint(gp)
	}
}

func BenchmarkUnfoundedIteration(b *testing.B) {
	prog, db, _ := mustCompile(b, bench.WinMoveRandom(500, 1000, 7))
	res := chase.Run(prog, db, chase.Options{MaxDepth: 8, MaxAtoms: 1_000_000})
	gp := ground.FromChase(res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ground.UnfoundedIteration(gp)
	}
}

func BenchmarkForwardProofIteration(b *testing.B) {
	prog, db, _ := mustCompile(b, bench.WinMoveRandom(500, 1000, 7))
	res := chase.Run(prog, db, chase.Options{MaxDepth: 8, MaxAtoms: 1_000_000})
	gp := ground.FromChase(res)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ground.ForwardProofIteration(gp)
	}
}

func BenchmarkParser(b *testing.B) {
	src := bench.WinMoveRandom(1000, 2000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := atom.NewStore(term.NewStore())
		if _, _, _, err := program.CompileText(src, st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryAnswering(b *testing.B) {
	prog, db, st := mustCompile(b, bench.WinMoveRandom(2000, 4000, 9))
	m := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	q, err := program.ParseQuery("? move(X,Y), not win(Y).", st)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Answer(q)
	}
}

// BenchmarkE10AlgorithmAblation — the three equivalent WFS operators on
// one bounded grounding.
func BenchmarkE10AlgorithmAblation(b *testing.B) {
	prog, db, _ := mustCompile(b, bench.WinMoveRandom(1500, 3000, 11))
	res := chase.Run(prog, db, chase.Options{MaxDepth: 8, MaxAtoms: 1_000_000})
	gp := ground.FromChase(res)
	b.Run("alternating", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ground.AlternatingFixpoint(gp)
		}
	})
	b.Run("unfounded-sets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ground.UnfoundedIteration(gp)
		}
	})
	b.Run("forward-proofs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ground.ForwardProofIteration(gp)
		}
	})
}

// BenchmarkE11GoalDirectedAblation — saturate-everything vs the fully
// goal-directed pipeline (relevance-restricted chase + local fixpoint).
func BenchmarkE11GoalDirectedAblation(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(bench.WinMoveComponents(100, 30))
	sb.WriteString("seed(X) -> chainA(X, Y).\nchainA(X, Y) -> chainB(Y, Z).\n")
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&sb, "seed(s%d).\n", i)
	}
	prog, db, st := mustCompile(b, sb.String())
	p, _ := st.LookupPred("win")
	goal := st.Atom(p, []term.ID{st.Terms.Const("n0_0")})
	b.Run("saturate-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Evaluate(prog, db, core.Options{}, 8, nil, nil)
		}
	})
	b.Run("goal-directed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.WCheckGoalDirected(prog, db, goal, core.Options{Depth: 8})
		}
	})
}
