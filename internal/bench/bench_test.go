package bench

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
)

// TestGeneratorsCompile: every generator must emit valid guarded normal
// Datalog± (generator bugs panic inside compileMust).
func TestGeneratorsCompile(t *testing.T) {
	for name, src := range map[string]string{
		"Example4":          Example4,
		"WinMoveChain":      WinMoveChain(10),
		"WinMoveCycle":      WinMoveCycle(7),
		"WinMoveRandom":     WinMoveRandom(20, 40, 1),
		"WinMoveComponents": WinMoveComponents(3, 4),
		"ReachChain":        ReachChain(10),
		"UpdateFamily":      UpdateFamily(5, 6),
		"ExpChase":          ExpChase(4),
		"PermFamily2":       PermFamily(2),
		"PermFamily4":       PermFamily(4),
		"StratifiedFamily":  StratifiedFamily(10),
	} {
		prog, db, _ := compileMust(src)
		if prog == nil {
			t.Errorf("%s produced a nil program", name)
		}
		if name != "Example4" && len(db) == 0 {
			t.Errorf("%s produced an empty database", name)
		}
	}
}

func TestWinMoveChainSemantics(t *testing.T) {
	// On a chain of even length n, v0 alternates: win at odd distance
	// from the dead end.
	prog, db, st := compileMust(WinMoveChain(4))
	m := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	wantTrue := map[string]bool{"v1": true, "v3": true} // odd distance from v4
	p, _ := st.LookupPred("win")
	for i := 0; i <= 4; i++ {
		name := "v" + string(rune('0'+i))
		c, ok := st.Terms.LookupConst(name)
		if !ok {
			continue
		}
		a, ok := st.Lookup(p, []term.ID{c})
		got := ground.False
		if ok {
			got = m.Truth(a)
		}
		want := ground.False
		if wantTrue[name] {
			want = ground.True
		}
		if got != want {
			t.Errorf("win(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestWinMoveCycleAllUndefined(t *testing.T) {
	prog, db, _ := compileMust(WinMoveCycle(6))
	m := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	if got := m.GM.CountUndefined(); got != 6 {
		t.Errorf("undefined = %d, want 6", got)
	}
}

func TestExpChaseSize(t *testing.T) {
	// ExpChase(k) derives exactly 2^(k+1) - 1 atoms.
	for k := 2; k <= 6; k++ {
		prog, db, _ := compileMust(ExpChase(k))
		m := core.Evaluate(prog, db, core.Options{}, k+2, nil, nil)
		want := 1<<(k+1) - 1
		if got := m.GP.NumAtoms(); got != want {
			t.Errorf("ExpChase(%d) atoms = %d, want %d", k, got, want)
		}
	}
}

func TestPermFamilySize(t *testing.T) {
	// PermFamily(w) derives exactly w! atoms (all permutations).
	fact := []int{0, 1, 2, 6, 24, 120}
	for w := 2; w <= 5; w++ {
		prog, db, _ := compileMust(PermFamily(w))
		m := core.Evaluate(prog, db, core.Options{}, w*w+2, nil, nil)
		if got := m.GP.NumAtoms(); got != fact[w] {
			t.Errorf("PermFamily(%d) atoms = %d, want %d", w, got, fact[w])
		}
	}
}

func TestEmploymentFamilyCounts(t *testing.T) {
	st := atom.NewStore(term.NewStore())
	prog, db, err := EmploymentFamily(9).Compile(st)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	// Of 9 persons, 3 are employed (every third): 3 employee IDs, 6 job
	// seeker IDs, 3 valid IDs.
	if got := countTrueByPred(m, st, "employeeID"); got != 3 {
		t.Errorf("employeeID = %d, want 3", got)
	}
	if got := countTrueByPred(m, st, "jobSeekerID"); got != 6 {
		t.Errorf("jobSeekerID = %d, want 6", got)
	}
	if got := countTrueByPred(m, st, "validID"); got != 3 {
		t.Errorf("validID = %d, want 3", got)
	}
}

func TestStratifiedFamilyIsStratified(t *testing.T) {
	prog, _, _ := compileMust(StratifiedFamily(6))
	if _, ok := prog.Stratify(); !ok {
		t.Errorf("StratifiedFamily is not stratified")
	}
}

func TestWinMoveRandomDeterministic(t *testing.T) {
	if WinMoveRandom(10, 20, 5) != WinMoveRandom(10, 20, 5) {
		t.Errorf("same seed produced different graphs")
	}
	if WinMoveRandom(10, 20, 5) == WinMoveRandom(10, 20, 6) {
		t.Errorf("different seeds produced identical graphs")
	}
}

// TestExperimentsRunQuick smoke-tests every experiment table end to end.
func TestExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps are slow")
	}
	var sb strings.Builder
	for _, id := range Experiments {
		sb.Reset()
		if err := Run(id, &sb, true); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := sb.String()
		if !strings.Contains(out, "== "+id) || !strings.Contains(out, "claim:") {
			t.Errorf("%s output malformed:\n%s", id, out)
		}
		if strings.Count(out, "\n") < 5 {
			t.Errorf("%s produced no rows:\n%s", id, out)
		}
	}
}

// BenchmarkDeltaApply — the delta subsystem's headline number: a trickle
// of single-fact mutations (alternating retractions and re-additions of
// one mid-chain edge per component) against the update-heavy family's
// large EDB, with the model re-evaluated after every mutation.
//
//   - "incremental" is the real path: core.RebaseModel — what snapshot
//     rungs run after a mutation — rebases the previous model's chase
//     (resumed for additions, forest-replayed for retractions), regrounds
//     only what changed, and warm-starts the WFS fixpoint on the mutated
//     component's dependency cone.
//   - "rebuild" reconstructs the invalidate-and-rebuild design: every
//     mutation discards the model and re-chases, regrounds, and re-runs
//     the fixpoint over the full database (core.Evaluate).
//
// The acceptance bar is incremental ≥ 2× faster; BENCH_delta.json
// records the committed baseline.
func BenchmarkDeltaApply(b *testing.B) {
	const comps, length = 160, 50
	src := UpdateFamily(comps, length)
	prog, db0, st := compileMust(src)
	moveP, ok := st.LookupPred("move")
	if !ok {
		b.Fatal("no move predicate")
	}
	edge := func(c int) atom.AtomID {
		return st.Atom(moveP, []term.ID{
			st.Terms.Const(fmt.Sprintf("n%d_3", c)),
			st.Terms.Const(fmt.Sprintf("n%d_4", c)),
		})
	}
	// mutate toggles one component's mid-chain edge: out while present,
	// back in while absent — every op is a genuine set-level change.
	mutate := func(db program.Database, removed []bool, i int) program.Database {
		c := i % comps
		a := edge(c)
		defer func() { removed[c] = !removed[c] }()
		if !removed[c] {
			out := make(program.Database, 0, len(db))
			for _, f := range db {
				if f != a {
					out = append(out, f)
				}
			}
			return out
		}
		return append(db[:len(db):len(db)], a)
	}

	b.Run("incremental", func(b *testing.B) {
		m := core.Evaluate(prog, db0, core.Options{}, core.DefaultDepth, nil, nil)
		db, removed := db0, make([]bool, comps)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db = mutate(db, removed, i)
			if m = core.RebaseModel(m, prog, core.Options{}, core.DefaultDepth, db, nil, nil); m == nil {
				b.Fatal("no model")
			}
		}
	})

	b.Run("rebuild", func(b *testing.B) {
		db, removed := db0, make([]bool, comps)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db = mutate(db, removed, i)
			if core.Evaluate(prog, db, core.Options{}, 0, nil, nil) == nil {
				b.Fatal("no model")
			}
		}
	})
}

// TestDeltaApplyBenchWorkloadIsSound: the benchmark's mutation actually
// changes the model (no-op deltas would let the incremental path win
// vacuously), and the rebased model agrees with a rebuilt one after a
// toggle round-trip.
func TestDeltaApplyBenchWorkloadIsSound(t *testing.T) {
	const comps, length = 4, 8
	prog, db, st := compileMust(UpdateFamily(comps, length))
	moveP, _ := st.LookupPred("move")
	a := st.Atom(moveP, []term.ID{st.Terms.Const("n0_3"), st.Terms.Const("n0_4")})
	const depth = core.DefaultDepth
	m0 := core.Evaluate(prog, db, core.Options{}, depth, nil, nil)
	winP, _ := st.LookupPred("win")
	probe := st.Atom(winP, []term.ID{st.Terms.Const("n0_3")})
	before := m0.Truth(probe)

	var db1 program.Database
	for _, f := range db {
		if f != a {
			db1 = append(db1, f)
		}
	}
	m1 := core.RebaseModel(m0, prog, core.Options{}, depth, db1, nil, nil)
	if m1.Truth(probe) == before {
		t.Fatalf("retraction did not change win(n0_3) (= %v): benchmark workload is vacuous", before)
	}
	db2 := append(db1[:len(db1):len(db1)], a)
	m2 := core.RebaseModel(m1, prog, core.Options{}, depth, db2, nil, nil)
	scratch := core.Evaluate(prog, db2, core.Options{}, depth, nil, nil)
	for _, g := range scratch.Chase.Atoms {
		if gv, wv := m2.Truth(g), scratch.Truth(g); gv != wv {
			t.Errorf("truth(%s) = %v, want %v", st.String(g), gv, wv)
		}
	}
}

// TestModularEquivOnFamilies is the workload half of the modular
// cross-check suite (the random-program half lives in internal/ground):
// on the ground program of every benchmark family, the modular SCC-wise
// solve must agree truth-for-truth with each of the four global WFS
// algorithms.
func TestModularEquivOnFamilies(t *testing.T) {
	families := map[string]string{
		"Example4":          Example4,
		"WinMoveChain":      WinMoveChain(24),
		"WinMoveCycle":      WinMoveCycle(12),
		"WinMoveRandom":     WinMoveRandom(30, 60, 7),
		"WinMoveComponents": WinMoveComponents(6, 5),
		"ReachChain":        ReachChain(16),
		"UpdateFamily":      UpdateFamily(8, 10),
		"ExpChase":          ExpChase(5),
		"PermFamily":        PermFamily(4),
		"StratifiedFamily":  StratifiedFamily(30),
		"LadderFamily":      LadderFamily(4, 12),
	}
	if src, err := EmploymentFamily(9).ToDatalog(); err == nil {
		families["EmploymentFamily"] = src
	} else {
		t.Fatalf("employment ontology: %v", err)
	}
	algos := map[string]func(*ground.Program) *ground.Model{
		"alternating-fixpoint": ground.AlternatingFixpoint,
		"unfounded-sets":       ground.UnfoundedIteration,
		"forward-proofs":       ground.ForwardProofIteration,
		"remainder":            ground.Remainder,
	}
	for name, src := range families {
		prog, db, _ := compileMust(src)
		res := chase.Run(prog, db, chase.Options{MaxDepth: core.DefaultDepth, MaxAtoms: 4_000_000})
		gp := ground.FromChase(res)
		for an, algo := range algos {
			if !ground.SolveModular(gp, algo, nil, nil).Equal(algo(gp)) {
				t.Errorf("%s/%s: modular solve diverges from global", name, an)
			}
		}
	}
}

// BenchmarkModularSolve — the modular solver's headline number, measured
// on the ground program alone (no chase, no grounding: exactly the solve
// the engine dispatches per model).
//
//   - UpdateFamily(160, 50) is the worst case for a global fixpoint: 160
//     independent win-move chains, so every global round sweeps ~16k
//     rules to make progress on components that each need ~100 rounds.
//     Its ground dependency graph is acyclic (chains, not cycles), so
//     the modular solve finishes each component in a single definite
//     pass — "global/update" vs "modular/update" is the acceptance
//     comparison (criterion: ≥ 2×; BENCH_modular.json holds the
//     committed baseline).
//   - WinMoveCycle(3000) is the worst case for the modular solver: one
//     negation cycle spans every win atom, so decomposition buys nothing
//     and the subprogram extraction is pure overhead (criterion:
//     "modular/cycle" within 10% of "global/cycle").
//   - "condense/update" prices the Tarjan condensation itself (cached on
//     the Program in production, rebuilt fresh here).
func BenchmarkModularSolve(b *testing.B) {
	ground16k := func() *ground.Program {
		prog, db, _ := compileMust(UpdateFamily(160, 50))
		return ground.FromChase(chase.Run(prog, db, chase.Options{MaxDepth: core.DefaultDepth, MaxAtoms: 4_000_000}))
	}
	gpU := ground16k()
	progC, dbC, _ := compileMust(WinMoveCycle(3000))
	gpC := ground.FromChase(chase.Run(progC, dbC, chase.Options{MaxDepth: core.DefaultDepth, MaxAtoms: 4_000_000}))

	b.Run("global/update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ground.AlternatingFixpoint(gpU) == nil {
				b.Fatal("no model")
			}
		}
	})
	b.Run("modular/update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ground.SolveModular(gpU, ground.AlternatingFixpoint, nil, nil) == nil {
				b.Fatal("no model")
			}
		}
	})
	b.Run("condense/update", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ground.Condense(gpU) == nil {
				b.Fatal("no condensation")
			}
		}
	})
	b.Run("global/cycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ground.AlternatingFixpoint(gpC) == nil {
				b.Fatal("no model")
			}
		}
	})
	b.Run("modular/cycle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ground.SolveModular(gpC, ground.AlternatingFixpoint, nil, nil) == nil {
				b.Fatal("no model")
			}
		}
	})
}

func TestUnknownExperiment(t *testing.T) {
	if err := Run("E99", io.Discard, true); err == nil {
		t.Errorf("unknown experiment accepted")
	}
}

// TestE5NoMismatches asserts the E5 claim directly: the experiment's
// mismatch column must be all zeros.
func TestE5NoMismatches(t *testing.T) {
	tab := E5StratifiedCoincidence(true)
	for _, row := range tab.Rows {
		if row[2] != "0" || row[3] != "0" {
			t.Errorf("E5 row has mismatches/undefined: %v", row)
		}
	}
}

// TestE6NoDivergence asserts the E6 claim directly.
func TestE6NoDivergence(t *testing.T) {
	tab := E6PositiveCoincidence(true)
	for _, row := range tab.Rows {
		if row[2] != "0" || row[3] != "0" {
			t.Errorf("E6 row diverges from chase: %v", row)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "T", Title: "test", Claim: "c", Header: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", "y")
	tab.Note("n1")
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== T: test", "claim: c", "2.50", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestEmploymentOntologyMatchesPaper(t *testing.T) {
	src, err := EmploymentOntology().ToDatalog()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "not ex_jobSeekerID(X) -> employeeID(X, Z)") {
		t.Errorf("ontology translation drifted:\n%s", src)
	}
}
