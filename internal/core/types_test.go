package core

import (
	"strings"
	"testing"

	"repro/internal/term"
)

// TestTypesChainPeriodicity checks the §3 locality insight on Example 4:
// the R-chain atoms R(0,t_i,t_{i+1}) for i ≥ 1 all have pairwise
// ∅-isomorphic types (their local truth environment is the same up to
// renaming of nulls) — the periodicity that makes the type space finite
// and drives Lemma 11 / Proposition 12.
func TestTypesChainPeriodicity(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	m := Evaluate(prog, db, Options{}, 12, nil, nil)

	c0 := st.Terms.Const("0")
	c1 := st.Terms.Const("1")
	sk := prog.Rules[0].Exist[0].Fn
	ts := []term.ID{c0, c1}
	for i := 2; i < 8; i++ {
		ts = append(ts, st.Terms.Skolem(sk, []term.ID{c0, ts[i-2], ts[i-1]}))
	}
	rp, _ := st.LookupPred("r")
	r12 := st.Atom(rp, []term.ID{c0, ts[1], ts[2]})
	r23 := st.Atom(rp, []term.ID{c0, ts[2], ts[3]})
	r34 := st.Atom(rp, []term.ID{c0, ts[3], ts[4]})
	r45 := st.Atom(rp, []term.ID{c0, ts[4], ts[5]})
	// Periodicity sets in once the domain contains only the constant 0
	// and two nulls: from R(0,t2,t3) on, all chain types are isomorphic.
	if !m.TypesIsomorphic(r23, r34) {
		t.Errorf("types of R(0,t2,t3) and R(0,t3,t4) not isomorphic:\n%s\n%s",
			m.TypeOf(r23).String(st), m.TypeOf(r34).String(st))
	}
	if !m.TypesIsomorphic(r34, r45) {
		t.Errorf("types of R(0,t3,t4) and R(0,t4,t5) not isomorphic")
	}
	// R(0,t1,t2) is different: t1 = 1 is a database constant, so the
	// root literal r(0,0,1) (and ¬q(1)) lies inside its domain — its
	// local environment is genuinely richer.
	if m.TypesIsomorphic(r12, r23) {
		t.Errorf("type of R(0,t1,t2) unexpectedly isomorphic to a deep chain member")
	}
	// Likewise the root fact itself.
	r01 := st.Atom(rp, []term.ID{c0, ts[0], ts[1]})
	if m.TypesIsomorphic(r01, r23) {
		t.Errorf("type of the root R(0,0,1) unexpectedly isomorphic to a chain member")
	}
}

func TestTypesXIsomorphismPinsTerms(t *testing.T) {
	prog, db, _, st := compile(t, example4)
	m := Evaluate(prog, db, Options{}, 10, nil, nil)
	c0 := st.Terms.Const("0")
	c1 := st.Terms.Const("1")
	sk := prog.Rules[0].Exist[0].Fn
	t2 := st.Terms.Skolem(sk, []term.ID{c0, c0, c1})
	t3 := st.Terms.Skolem(sk, []term.ID{c0, c1, t2})
	t4 := st.Terms.Skolem(sk, []term.ID{c0, t2, t3})
	rp, _ := st.LookupPred("r")
	r12 := st.Atom(rp, []term.ID{c0, c1, t2})
	r23 := st.Atom(rp, []term.ID{c0, t2, t3})
	r34 := st.Atom(rp, []term.ID{c0, t3, t4})

	// Pinning the shared constant 0 keeps chain types isomorphic…
	if !m.TypesXIsomorphic(r23, r34, []term.ID{c0}) {
		t.Errorf("{0}-isomorphism of chain types failed")
	}
	// …but pinning t2 forces t2 ↦ t2, which is impossible between
	// R(0,t1,t2) and R(0,t3,t4) where t2 does not occur on the right.
	if m.TypesXIsomorphic(r12, r34, []term.ID{t2}) {
		t.Errorf("{t2}-isomorphism should fail when t2 cannot be fixed")
	}
}

func TestTypesDifferentPredicatesNotIsomorphic(t *testing.T) {
	prog, db, _, st := compile(t, "p(a). q(a).")
	m := Evaluate(prog, db, Options{}, 0, nil, nil)
	pp, _ := st.LookupPred("p")
	qp, _ := st.LookupPred("q")
	ca := st.Terms.Const("a")
	pa := st.Atom(pp, []term.ID{ca})
	qa := st.Atom(qp, []term.ID{ca})
	if m.TypesIsomorphic(pa, qa) {
		t.Errorf("p(a) and q(a) types isomorphic")
	}
	// Reflexivity.
	if !m.TypesIsomorphic(pa, pa) {
		t.Errorf("type not isomorphic to itself")
	}
}

func TestTypeOfContents(t *testing.T) {
	prog, db, _, st := compile(t, `
p(a). q(a). r(a,b).
p(X), not s(X) -> u(X).
`)
	m := Evaluate(prog, db, Options{}, 0, nil, nil)
	pp, _ := st.LookupPred("p")
	ca := st.Terms.Const("a")
	pa := st.Atom(pp, []term.ID{ca})
	ty := m.TypeOf(pa)
	rendered := ty.String(st)
	// dom(p(a)) = {a}: the type contains p(a), q(a), u(a) (true) and
	// ¬s(a) (false, in the universe via the rule's negative body), but
	// not r(a,b) (b ∉ dom).
	for _, want := range []string{"p(a)", "q(a)", "u(a)", "¬s(a)"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("type missing %s: %s", want, rendered)
		}
	}
	if strings.Contains(rendered, "r(a,b)") {
		t.Errorf("type leaked literal outside dom(a): %s", rendered)
	}
}
