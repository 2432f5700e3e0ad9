package core

import (
	"math/rand"
	"testing"

	"repro/internal/atom"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
)

func TestQueryEqualities(t *testing.T) {
	prog, db, _, st := compile(t, `
likes(ann, bob). likes(bob, ann). likes(cid, cid).
`)
	for _, tc := range []struct {
		q    string
		want ground.Truth
	}{
		{"? likes(X, Y), X = Y.", ground.True}, // cid likes cid
		{"? likes(X, Y), X = ann, Y = bob.", ground.True},
		{"? likes(X, Y), X = ann, Y = ann.", ground.False},
		{"? likes(X, X).", ground.True},
		{"? likes(X, Y), X = Y, X = ann.", ground.False},
		{"? likes(ann, X), X = bob.", ground.True},
		{"? likes(X, Y), ann = X.", ground.True}, // constant on the left
	} {
		q, err := program.ParseQuery(tc.q, st)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.q, err)
		}
		if got, _, _ := answer(prog, db, Options{}, q); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQueryEqualityUnsat(t *testing.T) {
	prog, db, _, st := compile(t, "p(a).")
	for _, qs := range []string{
		"? p(X), X = a, X = b.",
		"? p(X), a = b.",
		"? p(X), X = Y, Y = b, X = a.",
	} {
		q, err := program.ParseQuery(qs, st)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		if !q.Unsat {
			t.Errorf("%s not marked Unsat", qs)
		}
		if got, _, _ := answer(prog, db, Options{}, q); got != ground.False {
			t.Errorf("%s = %v, want false", qs, got)
		}
	}
}

func TestQueryEqualityMakesNegativeSafe(t *testing.T) {
	prog, db, _, st := compile(t, "p(a).\nq(b).")
	// Y appears only in the negative literal but is equality-bound to a
	// constant: safe.
	q, err := program.ParseQuery("? p(X), Y = b, not q(Y).", st)
	if err != nil {
		t.Fatalf("equality-bound negative rejected: %v", err)
	}
	if got, _, _ := answer(prog, db, Options{}, q); got != ground.False { // q(b) is true
		t.Errorf("answer = %v, want false", got)
	}
	q2, err := program.ParseQuery("? p(X), Y = c, not q(Y).", st)
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := answer(prog, db, Options{}, q2); got != ground.True { // q(c) never derived
		t.Errorf("answer = %v, want true", got)
	}
	// Unbound equality chain stays unsafe.
	if _, err := program.ParseQuery("? p(X), Y = Z, not q(Y).", st); err == nil {
		t.Errorf("unsafe equality chain accepted")
	}
}

func TestSelectTuplesOverConstants(t *testing.T) {
	prog, db, _, st := compile(t, `
person(ann). person(bob). person(cid).
employed(ann).
person(X) -> hasID(X, Y).
person(X), not employed(X) -> unemployed(X).
`)
	m := Evaluate(prog, db, Options{}, 0, nil, nil)

	q, err := program.ParseQuery("? unemployed(X).", st)
	if err != nil {
		t.Fatal(err)
	}
	tuples := m.Select(q)
	if len(tuples) != 2 {
		t.Fatalf("tuples = %d, want 2", len(tuples))
	}
	// Ordered lexicographically: bob, cid.
	if st.Terms.String(tuples[0][0]) != "bob" || st.Terms.String(tuples[1][0]) != "cid" {
		t.Errorf("tuples = [%s, %s]", st.Terms.String(tuples[0][0]), st.Terms.String(tuples[1][0]))
	}

	// hasID binds Y to nulls: those are not tuples over ∆ (§2.1), so the
	// two-variable query has no answers, while projecting X alone via an
	// equality-free one-variable query does.
	q2, err := program.ParseQuery("? hasID(X, Y).", st)
	if err != nil {
		t.Fatal(err)
	}
	if tuples := m.Select(q2); len(tuples) != 0 {
		t.Errorf("null-valued tuples leaked into answers: %d", len(tuples))
	}
}

func TestSelectDeduplicates(t *testing.T) {
	prog, db, _, st := compile(t, `
edge(a,b). edge(a,c).
edge(X, Y) -> src(X).
`)
	m := Evaluate(prog, db, Options{}, 0, nil, nil)
	q, err := program.ParseQuery("? src(X).", st)
	if err != nil {
		t.Fatal(err)
	}
	if tuples := m.Select(q); len(tuples) != 1 {
		t.Errorf("tuples = %d, want 1 (deduplicated)", len(tuples))
	}
}

func TestUndefinedQueryAnswer(t *testing.T) {
	prog, db, _, st := compile(t, `
move(a,b). move(b,a). move(c,dend).
move(X,Y), not win(Y) -> win(X).
`)
	m := Evaluate(prog, db, Options{}, 0, nil, nil)
	for _, tc := range []struct {
		q    string
		want ground.Truth
	}{
		{"? win(a).", ground.Undefined},
		{"? win(c).", ground.True},
		{"? win(dend).", ground.False},
		{"? win(a), win(c).", ground.Undefined}, // undefined ∧ true
		{"? win(dend), win(c).", ground.False},  // false ∧ true
		{"? not win(a).", ground.Undefined},     // ¬undefined
		{"? not win(dend).", ground.True},       // ¬false
		{"? win(c), not win(a).", ground.Undefined},
	} {
		q, err := program.ParseQuery(tc.q, st)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.q, err)
		}
		if got := m.Answer(q); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestBindingsEnumeration(t *testing.T) {
	prog, db, _, st := compile(t, "p(a). p(b). p(c).")
	m := Evaluate(prog, db, Options{}, 0, nil, nil)
	q, err := program.ParseQuery("? p(X).", st)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	m.Bindings(q, func(sub atom.Subst) bool { n++; return true })
	if n != 3 {
		t.Errorf("bindings = %d, want 3", n)
	}
	// Early termination.
	n = 0
	m.Bindings(q, func(sub atom.Subst) bool { n++; return false })
	if n != 1 {
		t.Errorf("early-stop bindings = %d, want 1", n)
	}
}

func TestWCheckGoalDirectedAgreesWithSaturation(t *testing.T) {
	// A program with two predicate "worlds": the goal's world (win/move)
	// and an unrelated existential world (p/q chain). Goal-directed
	// checking must skip the latter entirely.
	src := `
move(a,b). move(b,c). move(c,a).
move(X,Y), not win(Y) -> win(X).
seed(s0).
seed(X) -> p(X, Y).
p(X, Y), not q(Y) -> q(X).
`
	prog, db, _, st := compile(t, src)
	m := Evaluate(prog, db, Options{}, 6, nil, nil)
	for i, g := range m.GP.Atoms {
		if st.PredName(st.PredOf(g)) != "win" {
			continue
		}
		got, stats := WCheckGoalDirected(prog, db, g, Options{Depth: 6})
		if got != m.GM.Truth[i] {
			t.Errorf("goal-directed %s = %v, saturated %v", st.String(g), got, m.GM.Truth[i])
		}
		if stats.RelevantPreds >= stats.TotalPreds {
			t.Errorf("relevance closure did not shrink: %+v", stats)
		}
		if stats.RelevantRules >= stats.TotalRules {
			t.Errorf("rule restriction did not shrink: %+v", stats)
		}
	}
}

func TestWCheckGoalDirectedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for round := 0; round < 60; round++ {
		src := randomGuardedSource(rng)
		st := atom.NewStore(term.NewStore())
		prog, db, _, err := program.CompileText(src, st)
		if err != nil {
			t.Fatal(err)
		}
		m := Evaluate(prog, db, Options{}, 5, nil, nil)
		for i, g := range m.GP.Atoms {
			if i%3 != 0 {
				continue // sample
			}
			got, _ := WCheckGoalDirected(prog, db, g, Options{Depth: 5})
			if got != m.GM.Truth[i] {
				t.Fatalf("round %d: goal-directed %s = %v, saturated %v\n%s",
					round, st.String(g), got, m.GM.Truth[i], src)
			}
		}
	}
}

func TestRelevantPredicates(t *testing.T) {
	prog, _, _, st := compile(t, `
a(X) -> b(X).
b(X), not c(X) -> d(X).
e(X) -> f(X).
`)
	dp, _ := st.LookupPred("d")
	rel := RelevantPredicates(prog, []atom.PredID{dp})
	for _, name := range []string{"d", "b", "c", "a"} {
		p, _ := st.LookupPred(name)
		if !rel[p] {
			t.Errorf("%s should be relevant to d", name)
		}
	}
	for _, name := range []string{"e", "f"} {
		p, _ := st.LookupPred(name)
		if rel[p] {
			t.Errorf("%s should not be relevant to d", name)
		}
	}
}
