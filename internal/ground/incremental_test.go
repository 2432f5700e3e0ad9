package ground

import (
	"testing"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/program"
	"repro/internal/term"
)

var solvers = map[string]func(*Program) *Model{
	"alternating":    AlternatingFixpoint,
	"unfounded-sets": UnfoundedIteration,
	"forward-proofs": ForwardProofIteration,
	"remainder":      Remainder,
}

func internFact(t *testing.T, st *atom.Store, pred string, args ...string) atom.AtomID {
	t.Helper()
	p, err := st.Pred(pred, len(args))
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]term.ID, len(args))
	for i, a := range args {
		ts[i] = st.Terms.Const(a)
	}
	return st.Atom(p, ts)
}

// checkSameTruth compares two models over (possibly differently indexed)
// chase groundings on every global atom of either universe.
func checkSameTruth(t *testing.T, st *atom.Store, got, want *Model) {
	t.Helper()
	for _, g := range want.Prog.Atoms {
		if gv, wv := got.TruthOfGlobal(g), want.TruthOfGlobal(g); gv != wv {
			t.Errorf("truth(%s) = %v, want %v", st.String(g), gv, wv)
		}
	}
	for _, g := range got.Prog.Atoms {
		if gv, wv := got.TruthOfGlobal(g), want.TruthOfGlobal(g); gv != wv {
			t.Errorf("truth(%s) = %v, want %v", st.String(g), gv, wv)
		}
	}
}

// TestIncrementalModelAddition: warm-starting over an ExtendFromChase
// suffix agrees with from-scratch solving under all four algorithms.
func TestIncrementalModelAddition(t *testing.T) {
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			prog, db, st := compileChase(t, `
move(a,b). move(b,c).
move(X,Y), not win(Y) -> win(X).
`)
			opts := chase.Options{MaxDepth: 8, MaxAtoms: 10_000}
			res := chase.Run(prog, db, opts)
			gp := FromChase(res)
			prev := solve(gp)

			added := internFact(t, st, "move", "c", "a")
			db2 := append(db, added)
			res2 := res.ExtendDB(prog, db2, []atom.AtomID{added}, nil)
			gp2 := ExtendFromChase(gp, res2)

			seeds := []atom.AtomID{added}
			for i := len(res.Instances); i < len(res2.Instances); i++ {
				seeds = append(seeds, res2.Instances[i].Head)
			}
			got := IncrementalModel(gp2, prev, seeds, solve, nil, nil)
			want := solve(gp2)
			checkSameTruth(t, st, got, want)
		})
	}
}

// TestIncrementalModelRetraction: warm-starting over a replayed
// retraction agrees with from-scratch solving under all four algorithms.
func TestIncrementalModelRetraction(t *testing.T) {
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			prog, db, st := compileChase(t, `
move(a,b). move(b,c). move(c,a). move(c,d).
p(x). p(y).
move(X,Y), not win(Y) -> win(X).
p(X), not q(X) -> q2(X).
`)
			opts := chase.Options{MaxDepth: 8, MaxAtoms: 10_000}
			res := chase.Run(prog, db, opts)
			gp := FromChase(res)
			prev := solve(gp)

			removed := internFact(t, st, "move", "c", "a")
			var db2 program.Database
			for _, f := range db {
				if f != removed {
					db2 = append(db2, f)
				}
			}
			res2, dead := res.Retract(prog, db2, nil)
			gp2 := FromChase(res2)

			seeds := []atom.AtomID{removed}
			for _, ci := range dead {
				seeds = append(seeds, res.Instances[ci].Head)
			}
			got := IncrementalModel(gp2, prev, seeds, solve, nil, nil)
			want := solve(gp2)
			checkSameTruth(t, st, got, want)
		})
	}
}

// TestIncrementalModelEmptySeeds: with nothing changed, the previous
// truths carry over verbatim.
func TestIncrementalModelEmptySeeds(t *testing.T) {
	prog, db, st := compileChase(t, example4Src)
	res := chase.Run(prog, db, chase.Options{MaxDepth: 5, MaxAtoms: 10_000})
	gp := FromChase(res)
	prev := AlternatingFixpoint(gp)
	got := IncrementalModel(gp, prev, nil, AlternatingFixpoint, nil, nil)
	checkSameTruth(t, st, got, prev)
}

// TestIncrementalModelUndefinedBoundary: an unaffected undefined atom on
// the boundary of the affected cone must stay undefined and propagate
// undefinedness into the re-solved region.
func TestIncrementalModelUndefinedBoundary(t *testing.T) {
	for name, solve := range solvers {
		t.Run(name, func(t *testing.T) {
			// u is undefined via the 2-cycle; c depends on u and on the
			// mutable fact b.
			prog, db, st := compileChase(t, `
m(a,b). m(b,a). base(z).
m(X,Y), not win(Y) -> win(X).
base(X), extra(X), not win(a) -> c(X).
`)
			res := chase.Run(prog, db, chase.Options{MaxDepth: 8, MaxAtoms: 10_000})
			gp := FromChase(res)
			prev := solve(gp)

			added := internFact(t, st, "extra", "z")
			db2 := append(db, added)
			res2 := res.ExtendDB(prog, db2, []atom.AtomID{added}, nil)
			gp2 := ExtendFromChase(gp, res2)
			seeds := []atom.AtomID{added}
			for i := len(res.Instances); i < len(res2.Instances); i++ {
				seeds = append(seeds, res2.Instances[i].Head)
			}
			got := IncrementalModel(gp2, prev, seeds, solve, nil, nil)
			want := solve(gp2)
			checkSameTruth(t, st, got, want)
			c := internFact(t, st, "c", "z")
			if tv := got.TruthOfGlobal(c); tv != Undefined {
				t.Errorf("c(z) = %v, want undefined (propagated through boundary)", tv)
			}
		})
	}
}

// TestAppendFacts: asserting an already-derived IDB atom as a fact makes
// it a fact rule without disturbing the previous program.
func TestAppendFacts(t *testing.T) {
	prog, db, st := compileChase(t, `
e(a,b). s(a).
s(X) -> r(X).
r(X), e(X,Y) -> r(Y).
`)
	res := chase.Run(prog, db, chase.Options{MaxDepth: 8, MaxAtoms: 10_000})
	gp := FromChase(res)
	rb := internFact(t, st, "r", "b")
	if gp.Local(rb) < 0 {
		t.Fatal("r(b) not derived")
	}
	prevRules := len(gp.Rules)
	gp2 := gp.AppendFacts([]atom.AtomID{rb})
	if len(gp.Rules) != prevRules {
		t.Fatal("AppendFacts mutated the receiver")
	}
	if len(gp2.Rules) != prevRules+1 {
		t.Fatalf("rules = %d, want %d", len(gp2.Rules), prevRules+1)
	}
	nr := gp2.Rules[prevRules]
	if nr.Head != gp2.Local(rb) || len(nr.Pos) != 0 || len(nr.Neg) != 0 {
		t.Fatalf("appended rule = %+v, want bodyless fact for r(b)", nr)
	}
	found := false
	for _, ri := range gp2.RulesFor(gp2.Local(rb)) {
		if int(ri) == prevRules {
			found = true
		}
	}
	if !found {
		t.Error("appended fact rule missing from the head index")
	}
}
