// Explain: forward proofs (Definition 5), atom types and X-isomorphism
// (§3 locality), and non-Boolean answers over ∆ (§2.1) — the paper's
// machinery made inspectable, on the Example 4 program.
//
// Run with: go run ./examples/explain
package main

import (
	"fmt"
	"log"

	"repro/internal/atom"
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/term"
)

const src = `
r(0,0,1).
p(0,0).
r(X,Y,Z) -> r(X,Z,W).
r(X,Y,Z), p(X,Y), not q(Z) -> p(X,Z).
r(X,Y,Z), not p(X,Y) -> q(Z).
r(X,Y,Z), not p(X,Z) -> s(X).
p(X,Y), not s(X) -> t(X).
`

func main() {
	st := atom.NewStore(term.NewStore())
	prog, db, _, err := program.CompileText(src, st)
	if err != nil {
		log.Fatal(err)
	}
	m := core.Evaluate(prog, db, core.Options{}, 8, nil, nil)

	// Forward proof of T(0): why is it well-founded? The negative
	// hypothesis ¬S(0) must itself be in the WFS.
	c0 := st.Terms.Const("0")
	tp, _ := st.LookupPred("t")
	t0 := st.Atom(tp, []term.ID{c0})
	proof, ok := m.Explain(t0)
	if !ok {
		log.Fatal("t(0) should be provable")
	}
	fmt.Println("forward proof of t(0) (Definition 5):")
	fmt.Print(proof.Render(st))

	// Why is S(0) false? Every candidate instance is blocked.
	sp, _ := st.LookupPred("s")
	s0 := st.Atom(sp, []term.ID{c0})
	blocked, _ := m.ExplainFalse(s0)
	fmt.Printf("\ns(0) is false: all %d candidate instances are blocked, e.g.:\n", len(blocked))
	for i, b := range blocked {
		if i == 3 {
			fmt.Println("  …")
			break
		}
		pol := ""
		if b.Negative {
			pol = "not "
		}
		fmt.Printf("  instance %d blocked by %s%s (%s)\n",
			b.Inst, pol, st.String(b.Blocker), b.BlockerTruth)
	}

	// Types and the locality of §3: deep chain atoms have isomorphic
	// types — the periodicity behind Proposition 12.
	c1 := st.Terms.Const("1")
	sk := prog.Rules[0].Exist[0].Fn
	ts := []term.ID{c0, c1}
	for i := 2; i < 7; i++ {
		ts = append(ts, st.Terms.Skolem(sk, []term.ID{c0, ts[i-2], ts[i-1]}))
	}
	rp, _ := st.LookupPred("r")
	r23 := st.Atom(rp, []term.ID{c0, ts[2], ts[3]})
	r34 := st.Atom(rp, []term.ID{c0, ts[3], ts[4]})
	fmt.Println("\natom types (§3):")
	fmt.Println("  typeP(R(0,t2,t3)) =", m.TypeOf(r23).String(st))
	fmt.Println("  typeP(R(0,t3,t4)) =", m.TypeOf(r34).String(st))
	fmt.Println("  isomorphic:", m.TypesIsomorphic(r23, r34))

	// Non-Boolean answers over ∆ (§2.1): which constants satisfy p(0,X)?
	q, err := program.ParseQuery("? p(0, X).", st)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nanswers to p(0, X) over ∆ (nulls excluded, §2.1):")
	for _, tup := range m.Select(q) {
		fmt.Println("  X =", st.Terms.String(tup[0]))
	}
}
