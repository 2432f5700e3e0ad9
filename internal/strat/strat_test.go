package strat

import (
	"errors"
	"testing"

	"repro/internal/atom"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
)

func compile(t *testing.T, src string) (*program.Program, program.Database, *atom.Store) {
	t.Helper()
	st := atom.NewStore(term.NewStore())
	prog, db, _, err := program.CompileText(src, st)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog, db, st
}

const employment = `
contract(p1, c1). person(p1). person(p2). person(p3). oldAge(p2).
contract(X, Y) -> employed(X).
person(X), not employed(X) -> seeker(X).
seeker(X), not retired(X) -> benefits(X).
oldAge(X) -> retired(X).
`

func TestStratifiedEvaluation(t *testing.T) {
	prog, db, st := compile(t, employment)
	m, err := Evaluate(prog, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	check := func(a string, want ground.Truth) {
		t.Helper()
		q, err := program.ParseQuery("? "+a+".", st)
		if err != nil {
			t.Fatal(err)
		}
		sub := atom.NewSubst(0)
		if got := m.Truth(st.Instantiate(q.Pos[0], sub)); got != want {
			t.Errorf("%s = %v, want %v", a, got, want)
		}
	}
	check("employed(p1)", ground.True)
	check("seeker(p1)", ground.False)
	check("seeker(p2)", ground.True)
	check("benefits(p2)", ground.False) // retired
	check("benefits(p3)", ground.True)
	check("retired(p2)", ground.True)
}

func TestPerfectModelIsTwoValued(t *testing.T) {
	prog, db, _ := compile(t, employment)
	m, err := Evaluate(prog, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.GM.CountUndefined() != 0 {
		t.Errorf("perfect model has undefined atoms")
	}
}

func TestCoincidesWithWFS(t *testing.T) {
	prog, db, _ := compile(t, employment)
	sm, err := Evaluate(prog, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	wm := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	for i, g := range wm.GP.Atoms {
		if wm.GM.Truth[i] != sm.GM.TruthOfGlobal(g) {
			t.Errorf("disagreement on %s: wfs=%v strat=%v",
				prog.Store.String(g), wm.GM.Truth[i], sm.GM.TruthOfGlobal(g))
		}
	}
}

func TestCoincidesWithWFSUnderExistentials(t *testing.T) {
	// Stratified program with existential heads: the DL-Lite-ish shape.
	src := `
person(a). person(b). vip(a).
person(X) -> owns(X, Y).
owns(X, Y) -> exOwns(X).
person(X), not vip(X) -> standard(X).
`
	prog, db, _ := compile(t, src)
	sm, err := Evaluate(prog, db, 0)
	if err != nil {
		t.Fatal(err)
	}
	wm := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	if !wm.Exact || !sm.Exact {
		t.Fatalf("chase should saturate here")
	}
	for i, g := range wm.GP.Atoms {
		if wm.GM.Truth[i] != sm.GM.TruthOfGlobal(g) {
			t.Errorf("disagreement on %s", prog.Store.String(g))
		}
	}
}

func TestNotStratifiedRejected(t *testing.T) {
	prog, db, _ := compile(t, "move(a,b).\nmove(X,Y), not win(Y) -> win(X).")
	if _, err := Evaluate(prog, db, 0); !errors.Is(err, ErrNotStratified) {
		t.Errorf("error = %v, want ErrNotStratified", err)
	}
}
