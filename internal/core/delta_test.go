package core

import (
	"testing"

	"repro/internal/atom"
	"repro/internal/program"
	"repro/internal/term"
)

// factAtom interns pred(args...) into st.
func factAtom(t *testing.T, st *atom.Store, pred string, args ...string) atom.AtomID {
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

type dbOp struct {
	retract bool
	pred    string
	args    []string
}

func opAdd(pred string, args ...string) dbOp { return dbOp{pred: pred, args: args} }
func opDel(pred string, args ...string) dbOp { return dbOp{retract: true, pred: pred, args: args} }

func applyDBOp(t *testing.T, st *atom.Store, db program.Database, op dbOp) program.Database {
	t.Helper()
	a := factAtom(t, st, op.pred, op.args...)
	if op.retract {
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

// checkSameModel compares an incrementally maintained model against a
// from-scratch one: derived universe with minimal depths, instance count,
// three-valued truth on every global atom of either universe, and the
// exactness/guard-band metadata.
func checkSameModel(t *testing.T, st *atom.Store, got, want *Model) {
	t.Helper()
	if len(got.Chase.Atoms) != len(want.Chase.Atoms) {
		t.Fatalf("universe: %d atoms, want %d", len(got.Chase.Atoms), len(want.Chase.Atoms))
	}
	for _, a := range want.Chase.Atoms {
		if !got.Chase.Derived(a) {
			t.Fatalf("incremental chase missing %s", st.String(a))
		}
		if got.Chase.Depth(a) != want.Chase.Depth(a) {
			t.Errorf("depth(%s) = %d, want %d", st.String(a), got.Chase.Depth(a), want.Chase.Depth(a))
		}
	}
	if len(got.Chase.Instances) != len(want.Chase.Instances) {
		t.Fatalf("instances: %d, want %d", len(got.Chase.Instances), len(want.Chase.Instances))
	}
	for _, a := range want.Chase.Atoms {
		if gv, wv := got.Truth(a), want.Truth(a); gv != wv {
			t.Errorf("truth(%s) = %v, want %v", st.String(a), gv, wv)
		}
	}
	for _, a := range got.Chase.Atoms {
		if gv, wv := got.Truth(a), want.Truth(a); gv != wv {
			t.Errorf("truth(%s) = %v, want %v", st.String(a), gv, wv)
		}
	}
	if got.Exact != want.Exact || got.UsableDepth != want.UsableDepth {
		t.Errorf("exact/usable = %v/%d, want %v/%d",
			got.Exact, got.UsableDepth, want.Exact, want.UsableDepth)
	}
}

// deltaScripts are the satellite-mandated workloads: add-only,
// retract-only, and mixed mutation sequences over programs exercising
// negation, existentials, and undefined truth values.
var deltaScripts = []struct {
	name string
	src  string
	ops  []dbOp
}{
	{
		name: "add-only",
		src: `
move(a,b). move(b,c).
move(X,Y), not win(Y) -> win(X).
`,
		ops: []dbOp{
			opAdd("move", "c", "d"),
			opAdd("move", "d", "a"), // closes a cycle: undefined region appears
			opAdd("move", "e", "e"), // disjoint self-loop
			opAdd("win", "q"),       // IDB predicate as a direct fact
		},
	},
	{
		name: "retract-only",
		src: `
move(a,b). move(b,c). move(c,d). move(d,a). move(x,y).
move(X,Y), not win(Y) -> win(X).
`,
		ops: []dbOp{
			opDel("move", "d", "a"), // breaks the cycle: undefined collapses
			opDel("move", "x", "y"),
			opDel("move", "a", "b"),
		},
	},
	{
		name: "mixed-existential",
		src: `
r(0,0,1).
p(0,0).
r(X,Y,Z) -> r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
`,
		ops: []dbOp{
			opAdd("p", "0", "1"),
			opDel("p", "0", "0"),
			opAdd("r", "1", "0", "0"),
			opDel("r", "0", "0", "1"),
			opAdd("p", "0", "0"),
		},
	},
}

// TestApplyDeltaMatchesFromScratch is the tentpole cross-check: after
// every scripted mutation, the model RebaseModel carries across the delta
// must be indistinguishable — universe, depths, instance count,
// three-valued model, exactness — from one evaluated from scratch on the
// mutated database, at every rung of the adaptive ladder, under all four
// WFS algorithms. Each rung is rebased from its own previous-epoch
// model, as snapshot rungs are.
func TestApplyDeltaMatchesFromScratch(t *testing.T) {
	depths := []int{4, 6, 8}
	for _, script := range deltaScripts {
		for _, alg := range []Algorithm{AltFixpoint, UnfoundedSets, ForwardProofs, Remainder} {
			t.Run(script.name+"/"+alg.String(), func(t *testing.T) {
				prog, db, _, st := compile(t, script.src)
				opts := Options{Algorithm: alg}
				inc := make(map[int]*Model, len(depths))
				for _, d := range depths {
					inc[d] = Evaluate(prog, db, opts, d, nil, nil) // warm every rung before mutating
				}
				for i, op := range script.ops {
					db = applyDBOp(t, st, db, op)
					for _, d := range depths {
						inc[d] = RebaseModel(inc[d], prog, opts, d, db, nil, nil)
						want := Evaluate(prog, db, opts, d, nil, nil)
						t.Logf("op %d depth %d", i, d)
						checkSameModel(t, st, inc[d], want)
					}
				}
			})
		}
	}
}

// TestRebaseModelNoChangeReturnsReceiver: a rebase over an unchanged
// database (at the set level) must share the previous model outright.
func TestRebaseModelNoChangeReturnsReceiver(t *testing.T) {
	prog, db, _, _ := compile(t, example4)
	m := Evaluate(prog, db, Options{}, 6, nil, nil)
	// Same set, different multiset: duplicate the first fact.
	db2 := append(db[:len(db):len(db)], db[0])
	if got := RebaseModel(m, prog, Options{}, 6, db2, nil, nil); got != m {
		t.Error("multiplicity-only rebase rebuilt the model")
	}
}

// TestRebaseModelTruncatedFallsBack: a truncated chase cannot be rebased
// incrementally; the rebase must still produce a correct cold model.
func TestRebaseModelTruncatedFallsBack(t *testing.T) {
	prog, db, _, st := compile(t, "seed(c).\nseed(X) -> next(X).")
	opts := Options{MaxAtoms: 2}
	m := Evaluate(prog, db, opts, 4, nil, nil)
	if !m.Chase.ComputeStats().Truncated {
		t.Fatal("expected truncation")
	}
	db2 := append(db[:len(db):len(db)], factAtom(t, st, "seed", "d"))
	got := RebaseModel(m, prog, opts, 4, db2, nil, nil)
	want := Evaluate(prog, db2, opts, 4, nil, nil)
	if len(got.Chase.Atoms) != len(want.Chase.Atoms) {
		t.Errorf("fallback universe %d atoms, want %d", len(got.Chase.Atoms), len(want.Chase.Atoms))
	}
}

// TestApplyDeltaThenDeepen: after a delta, a depth never evaluated before
// extends the rebased chase rather than re-chasing — both when the
// rebase itself deepens (RebaseModel at a depth above the previous
// model's) and when a later rung extends the rebased model
// (ExtendModel), under all four WFS algorithms.
func TestApplyDeltaThenDeepen(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	db2 := applyDBOp(t, st, db, opAdd("p", "0", "1"))
	for _, alg := range []Algorithm{AltFixpoint, UnfoundedSets, ForwardProofs, Remainder} {
		opts := Options{Algorithm: alg}
		m4 := Evaluate(prog, db, opts, 4, nil, nil)
		want := Evaluate(prog, db2, opts, 7, nil, nil)
		checkSameModel(t, st, RebaseModel(m4, prog, opts, 7, db2, nil, nil), want)
		reb := RebaseModel(m4, prog, opts, 4, db2, nil, nil)
		checkSameModel(t, st, ExtendModel(reb, prog, opts, 7, nil, nil), want)
	}
}
