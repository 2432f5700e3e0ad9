package ground

import (
	"testing"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/program"
	"repro/internal/term"
)

const example4Src = `
r(0,0,1).
p(0,0).
r(X,Y,Z) -> r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
`

func compileChase(t *testing.T, src string) (*program.Program, program.Database, *atom.Store) {
	t.Helper()
	st := atom.NewStore(term.NewStore())
	prog, db, _, err := program.CompileText(src, st)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog, db, st
}

// TestExtendFromChaseKeepsLocalIDsStable: every atom of the previous
// grounding keeps its local index, and the appended grounding agrees with
// a from-scratch FromChase of the same chase on every global atom's truth.
func TestExtendFromChaseKeepsLocalIDsStable(t *testing.T) {
	prog, db, st := compileChase(t, example4Src)
	res := chase.Run(prog, db, chase.Options{MaxDepth: 3, MaxAtoms: 10_000})
	gp := FromChase(res)

	for _, d := range []int{5, 8} {
		res, _ = res.Extend(prog, d, nil)
		next := ExtendFromChase(gp, res)

		// Local IDs of the previous grounding survive.
		for i, a := range gp.Atoms {
			if got := next.Local(a); got != int32(i) {
				t.Fatalf("depth %d: local(%s) = %d, want %d", d, st.String(a), got, i)
			}
			if next.Atoms[i] != a {
				t.Fatalf("depth %d: Atoms[%d] changed", d, i)
			}
		}
		// The previous grounding itself is untouched.
		if len(gp.Atoms) > len(next.Atoms) || len(gp.Rules) > len(next.Rules) {
			t.Fatalf("depth %d: extension shrank the program", d)
		}

		// Same three-valued model as regrounding from scratch, compared
		// over global atoms (local numbering may differ).
		scratch := FromChase(res)
		mNext := AlternatingFixpoint(next)
		mScratch := AlternatingFixpoint(scratch)
		if len(next.Atoms) != len(scratch.Atoms) {
			t.Fatalf("depth %d: universe %d vs %d", d, len(next.Atoms), len(scratch.Atoms))
		}
		for _, a := range scratch.Atoms {
			if got, want := mNext.TruthOfGlobal(a), mScratch.TruthOfGlobal(a); got != want {
				t.Errorf("depth %d: truth(%s) = %v, want %v", d, st.String(a), got, want)
			}
		}
		gp = next
	}
}

// TestExtendFromChaseDoesNotAliasPrevIndexes: appending rules for an
// atom that already had rules must not write into the previous program's
// index backing arrays.
func TestExtendFromChaseDoesNotAliasPrevIndexes(t *testing.T) {
	prog, db, _ := compileChase(t, example4Src)
	res := chase.Run(prog, db, chase.Options{MaxDepth: 2, MaxAtoms: 10_000})
	gp := FromChase(res)
	before := make([]int, len(gp.Atoms))
	for i := range gp.rulesByHead {
		before[i] = len(gp.rulesByHead[i])
	}
	posBefore := make([]int, len(gp.Atoms))
	for i := range gp.posOcc {
		posBefore[i] = len(gp.posOcc[i])
	}

	deeper, _ := res.Extend(prog, 6, nil)
	ext := ExtendFromChase(gp, deeper)
	if len(ext.Rules) <= len(gp.Rules) {
		t.Fatal("extension added no rules; test is vacuous")
	}
	for i := range gp.rulesByHead {
		if len(gp.rulesByHead[i]) != before[i] {
			t.Fatalf("prev rulesByHead[%d] grew", i)
		}
	}
	for i := range gp.posOcc {
		if len(gp.posOcc[i]) != posBefore[i] {
			t.Fatalf("prev posOcc[%d] grew", i)
		}
	}
}

// TestExtendFromChaseFallsBack: a prev not built from a chase (or nil)
// falls back to a full FromChase.
func TestExtendFromChaseFallsBack(t *testing.T) {
	prog, db, _ := compileChase(t, example4Src)
	res := chase.Run(prog, db, chase.Options{MaxDepth: 3, MaxAtoms: 10_000})
	if got := ExtendFromChase(nil, res); len(got.Atoms) != len(FromChase(res).Atoms) {
		t.Error("nil prev did not fall back to FromChase")
	}
	local := New(2, []Rule{{Head: 0, Pos: []int32{1}}})
	if got := ExtendFromChase(local, res); len(got.Atoms) != len(FromChase(res).Atoms) {
		t.Error("purely local prev did not fall back to FromChase")
	}
}
