package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/strat"
	"repro/internal/term"
	"repro/internal/trace"
)

// compileMust compiles source text into a fresh store; the harness treats
// generator bugs as fatal.
func compileMust(src string) (*program.Program, program.Database, *atom.Store) {
	st := atom.NewStore(term.NewStore())
	prog, db, _, err := program.CompileText(src, st)
	if err != nil {
		panic(fmt.Sprintf("bench: generated workload failed to compile: %v", err))
	}
	return prog, db, st
}

func countTrueByPred(m *core.Model, st *atom.Store, pred string) int {
	p, ok := st.LookupPred(pred)
	if !ok {
		return 0
	}
	n := 0
	for i, g := range m.GP.Atoms {
		if st.PredOf(g) == p && m.GM.Truth[i] == ground.True {
			n++
		}
	}
	return n
}

// Experiments lists the available experiment ids in order. E10 and E11 are
// ablations of this implementation's design choices (DESIGN.md §5 note):
// the three equivalent WFS algorithms, and the effect of the goal-directed
// pipeline stages.
var Experiments = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11"}

// Run executes one experiment and prints its tables. quick shrinks the
// sweeps for use under `go test`.
func Run(id string, w io.Writer, quick bool) error {
	switch id {
	case "E1":
		E1DataComplexity(quick).Fprint(w)
	case "E2":
		E2CombinedComplexity(quick).Fprint(w)
	case "E3":
		E3ArityScaling(quick).Fprint(w)
	case "E4":
		E4TransfiniteIteration(quick).Fprint(w)
	case "E5":
		E5StratifiedCoincidence(quick).Fprint(w)
	case "E6":
		E6PositiveCoincidence(quick).Fprint(w)
	case "E7":
		E7GoalDirected(quick).Fprint(w)
	case "E8":
		E8DepthStabilization().Fprint(w)
	case "E9":
		E9DLLite(quick).Fprint(w)
	case "E10":
		E10AlgorithmAblation(quick).Fprint(w)
	case "E11":
		E11GoalDirectedAblation(quick).Fprint(w)
	default:
		return fmt.Errorf("bench: unknown experiment %q", id)
	}
	return nil
}

// RunAll executes every experiment.
func RunAll(w io.Writer, quick bool) {
	for _, id := range Experiments {
		if err := Run(id, w, quick); err != nil {
			fmt.Fprintln(w, "error:", err)
		}
	}
}

// E1DataComplexity — Theorems 13/14(3): evaluation is polynomial in |D|
// for fixed Σ and Q. Sweeps the win-move random graph and the Example 2
// employment family; time ratios per doubling should approach a small
// constant (low-degree polynomial), far from exponential blow-up.
func E1DataComplexity(quick bool) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "data complexity: time vs |D|, fixed Σ and Q",
		Claim:  "PTIME data complexity (Thm. 13/14: membership and NBCQ answering polynomial in |D|)",
		Header: []string{"workload", "|D|", "atoms", "time", "×prev"},
	}
	sizes := []int{512, 1024, 2048, 4096, 8192}
	if quick {
		sizes = []int{256, 512, 1024}
	}
	var prev time.Duration
	for _, n := range sizes {
		prog, db, _ := compileMust(WinMoveRandom(n, 2*n, 42))
		var m *core.Model
		d := Timed(func() { m = core.Evaluate(prog, db, core.Options{}, 0, nil, nil) })
		t.AddRow("win-move", 2*n, m.GP.NumAtoms(), d, Ratio(d, prev))
		prev = d
	}
	prev = 0
	empSizes := []int{300, 600, 1200, 2400}
	if quick {
		empSizes = []int{150, 300, 600}
	}
	for _, n := range empSizes {
		st := atom.NewStore(term.NewStore())
		prog, db, err := EmploymentFamily(n).Compile(st)
		if err != nil {
			panic(err)
		}
		var m *core.Model
		d := Timed(func() { m = core.Evaluate(prog, db, core.Options{}, 0, nil, nil) })
		t.AddRow("employment", n, m.GP.NumAtoms(), d, Ratio(d, prev))
		prev = d
	}
	t.Note("×prev ≈ 2 per doubling indicates near-linear growth — consistent with PTIME data complexity")
	return t
}

// E2CombinedComplexity — Theorem 13: with bounded arity the problem is
// EXPTIME-complete in the combined size; the ExpChase family realizes the
// exponential chase growth in |Σ| that drives the upper bound.
func E2CombinedComplexity(quick bool) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "combined complexity: time vs |Σ| (bounded arity)",
		Claim:  "EXPTIME combined complexity for bounded arity (Thm. 13): worst-case cost grows exponentially in |Σ|",
		Header: []string{"k (levels)", "|Σ| rules", "atoms", "time", "×prev"},
	}
	max := 13
	if quick {
		max = 10
	}
	var prev time.Duration
	for k := 4; k <= max; k++ {
		prog, db, _ := compileMust(ExpChase(k))
		var m *core.Model
		d := Timed(func() { m = core.Evaluate(prog, db, core.Options{}, k+2, nil, nil) })
		t.AddRow(k, 2*k, m.GP.NumAtoms(), d, Ratio(d, prev))
		prev = d
	}
	t.Note("atoms double per level (2 extra rules): ×prev ≈ 2 shows the exponential shape in |Σ|")
	return t
}

// E3ArityScaling — Theorem 13: with unbounded arity the problem is
// 2-EXPTIME-complete; the permutation family realizes the superexponential
// universe growth in the arity w that drives the type-space explosion.
func E3ArityScaling(quick bool) *Table {
	t := &Table{
		ID:     "E3",
		Title:  "combined complexity: time vs arity w (unbounded arity)",
		Claim:  "2-EXPTIME combined complexity (Thm. 13): cost grows superexponentially in w",
		Header: []string{"w", "atoms (≈w!)", "time", "×prev"},
	}
	max := 7
	if quick {
		max = 6
	}
	var prev time.Duration
	for w := 2; w <= max; w++ {
		prog, db, _ := compileMust(PermFamily(w))
		var m *core.Model
		d := Timed(func() { m = core.Evaluate(prog, db, core.Options{MaxAtoms: 8_000_000}, w*w+2, nil, nil) })
		t.AddRow(w, m.GP.NumAtoms(), d, Ratio(d, prev))
		prev = d
	}
	t.Note("growth factor itself grows with w (w! universe): superexponential shape in arity")
	return t
}

// E4TransfiniteIteration — Example 9: WFS(P) = ŴP,ω+2; the fixpoint does
// not close at any finite stage of the infinite program, so on depth-d
// truncations the number of operator rounds grows with d while the
// answers (T(0) true, ¬S(0), Q false, P true) stay fixed.
func E4TransfiniteIteration(quick bool) *Table {
	t := &Table{
		ID:     "E4",
		Title:  "transfinite iteration (Ex. 4/9): rounds vs truncation depth",
		Claim:  "lfp(ŴP) closes only beyond ω on the infinite program: rounds grow unboundedly with depth, answers stable",
		Header: []string{"depth", "atoms", "rounds", "T(0)", "S(0)", "Q(t1)", "P(0,t1)", "time"},
	}
	depths := []int{4, 8, 16, 32, 64}
	if quick {
		depths = []int{4, 8, 16, 32}
	}
	for _, d := range depths {
		prog, db, st := compileMust(Example4)
		var m *core.Model
		dur := Timed(func() { m = core.Evaluate(prog, db, core.Options{}, d, nil, nil) })
		truth := func(src string) ground.Truth {
			q, err := program.ParseQuery("? "+src+".", st)
			if err != nil {
				panic(err)
			}
			sub := atom.NewSubst(0)
			return m.Truth(st.Instantiate(q.Pos[0], sub))
		}
		t.AddRow(d, m.GP.NumAtoms(), m.GM.Rounds,
			truth("t(0)"), truth("s(0)"), truth("q(1)"), truth("p(0,1)"), dur)
	}
	t.Note("rounds grow with depth: the finite shadow of ŴP,ω+2 (Ex. 9); truth values do not change")
	return t
}

// E5StratifiedCoincidence — §1: the WFS conservatively extends stratified
// Datalog± [1]: on stratified programs both semantics agree atom-for-atom.
func E5StratifiedCoincidence(quick bool) *Table {
	t := &Table{
		ID:     "E5",
		Title:  "WFS vs stratified baseline on stratified programs",
		Claim:  "on stratified programs the WFS equals the iterated-chase perfect model (§1)",
		Header: []string{"|persons|", "atoms", "mismatches", "undef", "wfs time", "strat time", "overhead"},
	}
	sizes := []int{500, 1000, 2000, 4000}
	if quick {
		sizes = []int{200, 400, 800}
	}
	for _, n := range sizes {
		prog, db, _ := compileMust(StratifiedFamily(n))
		var wm *core.Model
		dw := Timed(func() { wm = core.Evaluate(prog, db, core.Options{}, 0, nil, nil) })
		var sm *core.Model
		var err error
		ds := Timed(func() { sm, err = strat.Evaluate(prog, db, 0) })
		if err != nil {
			panic(err)
		}
		mismatch := 0
		for i, g := range wm.GP.Atoms {
			if wm.GM.Truth[i] != sm.GM.TruthOfGlobal(g) {
				mismatch++
			}
		}
		t.AddRow(n, wm.GP.NumAtoms(), mismatch, wm.GM.CountUndefined(), dw, ds, Ratio(dw, ds))
	}
	t.Note("mismatches and undefined counts must be 0; overhead is the price of the alternating fixpoint")
	return t
}

// E6PositiveCoincidence — §1/[2]: on positive programs the WFS-true atoms
// are exactly the chase-derivable atoms and nothing is undefined; the WFS
// engine's overhead over the bare chase is a small constant.
func E6PositiveCoincidence(quick bool) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "WFS vs bare chase on positive guarded Datalog±",
		Claim:  "WFS restricted to positive programs = chase semantics of [1]; small constant overhead",
		Header: []string{"|D|", "atoms", "true≠derived", "undef", "chase time", "wfs time", "overhead"},
	}
	sizes := []int{1000, 2000, 4000, 8000}
	if quick {
		sizes = []int{500, 1000, 2000}
	}
	for _, n := range sizes {
		prog, db, _ := compileMust(ReachChain(n))
		var res *chase.Result
		dc := Timed(func() {
			res = chase.Run(prog, db, chase.Options{MaxDepth: n + 2, MaxAtoms: 8_000_000})
		})
		var m *core.Model
		dw := Timed(func() { m = core.Evaluate(prog, db, core.Options{MaxAtoms: 8_000_000}, n+2, nil, nil) })
		diff := 0
		for i, g := range m.GP.Atoms {
			derived := res.Derived(g)
			if (m.GM.Truth[i] == ground.True) != derived {
				diff++
			}
		}
		t.AddRow(n, m.GP.NumAtoms(), diff, m.GM.CountUndefined(), dc, dw, Ratio(dw, dc))
	}
	t.Note("true≠derived and undef must be 0 (positive programs are two-valued and chase-determined)")
	return t
}

// E7GoalDirected — §4 WCHECK: membership of a single ground atom is
// decided on the goal's dependency-closed fragment; on many-component
// instances the fragment (and hence the check) is much smaller than the
// saturated fixpoint.
func E7GoalDirected(quick bool) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "goal-directed WCHECK vs full saturation",
		Claim:  "WCHECK decides membership on a goal-local fragment (§4): closure ≪ universe on modular data",
		Header: []string{"components", "universe", "closure", "full fixpoint", "wcheck", "speedup"},
	}
	comps := []int{50, 100, 200, 400}
	if quick {
		comps = []int{25, 50, 100}
	}
	for _, k := range comps {
		prog, db, st := compileMust(WinMoveComponents(k, 30))
		m := core.Evaluate(prog, db, core.Options{}, 0, nil, nil) // includes the chase; both sides reuse it
		dFull := Timed(func() { ground.AlternatingFixpoint(m.GP) })
		p, _ := st.LookupPred("win")
		goal := st.Atom(p, []term.ID{st.Terms.Const("n0_0")})
		var stats *core.WCheckStats
		dGoal := Timed(func() { _, stats = m.WCheck(goal) })
		t.AddRow(k, stats.TotalAtoms, stats.ClosureAtoms, dFull, dGoal, Ratio(dFull, dGoal))
	}
	t.Note("speedup grows with the number of components: the fixpoint is confined to the goal's component")
	return t
}

// E8DepthStabilization — Proposition 12: a depth of n·δ suffices for NBCQ
// answering, but δ is astronomical; in practice answers stabilize at tiny
// depths that do not grow with |D| (the data-independence the PTIME bound
// rests on).
func E8DepthStabilization() *Table {
	t := &Table{
		ID:     "E8",
		Title:  "stabilization depth vs the Proposition 12 bound n·δ",
		Claim:  "n·δ suffices (Prop. 12) but is astronomically large; observed stabilization depths are tiny and data-independent",
		Header: []string{"workload", "query", "stable depth", "exact?", "δ (bits)"},
	}
	cases := []struct {
		name, src, query string
	}{
		{"example4", Example4, "? t(X)."},
		{"example4 (neg)", Example4, "? p(0, X), not q(X)."},
		{"win-move chain 50", WinMoveChain(50), "? win(v0)."},
		{"win-move chain 51", WinMoveChain(51), "? win(v0)."},
	}
	for _, c := range cases {
		prog, db, st := compileMust(c.src)
		q, err := program.ParseQuery(c.query, st)
		if err != nil {
			panic(err)
		}
		// Each rung resumes the previous rung's chase (core.ExtendModel),
		// so the ladder pays for each depth increment once.
		opts := core.Options{MaxDepth: 64, StabilityWindow: 3}
		var last *core.Model
		modelAt := func(d int, _ *trace.Span) (*core.Model, error) {
			if last == nil {
				last = core.Evaluate(prog, db, opts, d, nil, nil)
			} else {
				last = core.ExtendModel(last, prog, opts, d, nil, nil)
			}
			return last, nil
		}
		_, stats, _ := core.AdaptiveAnswer(opts, modelAt,
			func(*core.Model) (*program.Query, error) { return q, nil }, nil, nil)
		delta := core.DeltaForSchema(st)
		t.AddRow(c.name, c.query, stats.FinalDepth, stats.Exact, delta.BitLen())
	}
	t.Note("δ printed as its bit length: 2^bits magnitude — unusably large, while real depths are single/double digit")
	return t
}

// E9DLLite — Example 2: under UNA the WFS derives EmployeeID(a, f(a)),
// JobSeekerID(b, g(b)), and — because f(a) ≠ g(b) — ValidID(f(a)); the
// derivations scale linearly with the ABox.
func E9DLLite(quick bool) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "DL-Lite_{R,⊓,not} employment ontology under WFS+UNA (Ex. 2)",
		Claim:  "standard WFS derives EmployeeID(a,f(a)), JobSeekerID(b,g(b)), ValidID(f(a)) — the UNA makes f(a) ≠ g(b)",
		Header: []string{"persons", "employeeID", "jobSeekerID", "validID", "undef", "time"},
	}
	sizes := []int{3, 30, 300, 3000}
	if quick {
		sizes = []int{3, 30, 300}
	}
	for _, n := range sizes {
		st := atom.NewStore(term.NewStore())
		prog, db, err := EmploymentFamily(n).Compile(st)
		if err != nil {
			panic(err)
		}
		var m *core.Model
		d := Timed(func() { m = core.Evaluate(prog, db, core.Options{}, 0, nil, nil) })
		t.AddRow(n,
			countTrueByPred(m, st, "employeeID"),
			countTrueByPred(m, st, "jobSeekerID"),
			countTrueByPred(m, st, "validID"),
			m.GM.CountUndefined(), d)
	}
	t.Note("employed persons get EmployeeIDs, the rest JobSeekerIDs; every EmployeeID null is a ValidID (UNA)")
	return t
}

// E10AlgorithmAblation — design-choice ablation: the four provably
// equivalent WFS algorithms (alternating fixpoint; literal §2.6 WP
// iteration; Definition 7 ŴP iteration; Brass–Dix remainder) on the same
// bounded groundings.
// The alternating fixpoint is the default engine; the table quantifies
// what that choice buys.
func E10AlgorithmAblation(quick bool) *Table {
	t := &Table{
		ID:     "E10",
		Title:  "ablation: WFS algorithm choice (same model, different operators)",
		Claim:  "Theorem 8 / classical equivalences: all three compute WFS(P); cost differs",
		Header: []string{"workload", "atoms", "alternating", "unfounded-sets", "forward-proofs", "remainder", "agree"},
	}
	type wl struct {
		name string
		src  string
		d    int
	}
	n := 1500
	if quick {
		n = 400
	}
	for _, w := range []wl{
		{"win-move random", WinMoveRandom(n, 2*n, 11), 8},
		{"example4 deep", Example4, 32},
		{"stratified", StratifiedFamily(n / 2), 8},
	} {
		prog, db, _ := compileMust(w.src)
		res := chase.Run(prog, db, chase.Options{MaxDepth: w.d, MaxAtoms: 4_000_000})
		gp := ground.FromChase(res)
		var m1, m2, m3, m4 *ground.Model
		d1 := Timed(func() { m1 = ground.AlternatingFixpoint(gp) })
		d2 := Timed(func() { m2 = ground.UnfoundedIteration(gp) })
		d3 := Timed(func() { m3 = ground.ForwardProofIteration(gp) })
		d4 := Timed(func() { m4 = ground.Remainder(gp) })
		agree := m1.Equal(m2) && m1.Equal(m3) && m1.Equal(m4)
		t.AddRow(w.name, gp.NumAtoms(), d1, d2, d3, d4, agree)
	}
	t.Note("agree must be true everywhere; the alternating fixpoint avoids the per-round full-program rescan of the literal WP operator")
	return t
}

// E11GoalDirectedAblation — pipeline-stage ablation for goal-directed
// membership: (a) full saturation, (b) saturated chase + closure-restricted
// fixpoint (Model.WCheck), (c) fully goal-directed — relevance-restricted
// chase + closure fixpoint (WCheckGoalDirected). Isolates where the §4
// goal-locality pays.
func E11GoalDirectedAblation(quick bool) *Table {
	t := &Table{
		ID:     "E11",
		Title:  "ablation: goal-directed pipeline stages (WCHECK realizations)",
		Claim:  "restricting chase AND fixpoint to the goal's relevance closure dominates restricting the fixpoint alone",
		Header: []string{"components", "saturate-all", "closure-fixpoint", "goal-directed", "chased atoms"},
	}
	comps := []int{100, 200, 400}
	if quick {
		comps = []int{50, 100}
	}
	for _, k := range comps {
		// The win/move world (k components) plus a large unrelated world:
		// k·60 seed facts each spawning an existential chain. Predicate-
		// level relevance lets the goal-directed chase skip that world
		// entirely; the atom-level closure then confines the fixpoint to
		// the goal's component.
		var extra strings.Builder
		extra.WriteString("seed(X) -> chainA(X, Y).\nchainA(X, Y) -> chainB(Y, Z).\n")
		for i := 0; i < k*60; i++ {
			fmt.Fprintf(&extra, "seed(s%d).\n", i)
		}
		src := WinMoveComponents(k, 30) + extra.String()
		prog, db, st := compileMust(src)
		goalPred, _ := st.LookupPred("win")
		goal := st.Atom(goalPred, []term.ID{st.Terms.Const("n0_0")})

		var m *core.Model
		dFull := Timed(func() { m = core.Evaluate(prog, db, core.Options{}, 8, nil, nil) })
		var dClosure time.Duration
		dClosure = Timed(func() { m.WCheck(goal) })
		var gs *core.GoalStats
		dGoal := Timed(func() { _, gs = core.WCheckGoalDirected(prog, db, goal, core.Options{Depth: 8}) })
		t.AddRow(k, dFull, dClosure, dGoal, gs.ChasedAtoms)
	}
	t.Note("closure-fixpoint still pays for the full chase up front; goal-directed chases only the goal's predicates")
	return t
}
