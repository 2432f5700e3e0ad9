// Employment: the paper's Example 2 — a DL-Lite_{R,⊓,not} ontology
// interpreted under the standard WFS with UNA.
//
//	Person ⊓ Employed ⊓ not ∃JobSeekerID ⊑ ∃EmployeeID
//	Person ⊓ not Employed ⊓ not ∃EmployeeID ⊑ ∃JobSeekerID
//	∃EmployeeID⁻ ⊓ not ∃JobSeekerID⁻ ⊑ ValidID
//
// With D = {Person(a), Person(b), Employed(a)} the WFS derives
// EmployeeID(a, f(a)), JobSeekerID(b, g(b)) and — because the UNA makes
// f(a) ≠ g(b) — ValidID(f(a)). (The equality-friendly WFS of [4] cannot
// conclude ValidID(f(a)); this is the paper's §1 motivating contrast.)
//
// Run with: go run ./examples/employment
package main

import (
	"fmt"
	"log"

	"repro/internal/atom"
	"repro/internal/core"
	"repro/internal/dllite"
	"repro/internal/term"
)

func main() {
	ont := dllite.New()
	ont.SubClass(dllite.Exists("EmployeeID"),
		dllite.Pos(dllite.Atomic("Person")),
		dllite.Pos(dllite.Atomic("Employed")),
		dllite.Not(dllite.Exists("JobSeekerID")))
	ont.SubClass(dllite.Exists("JobSeekerID"),
		dllite.Pos(dllite.Atomic("Person")),
		dllite.Not(dllite.Atomic("Employed")),
		dllite.Not(dllite.Exists("EmployeeID")))
	ont.SubClass(dllite.Atomic("ValidID"),
		dllite.Pos(dllite.ExistsInv("EmployeeID")),
		dllite.Not(dllite.ExistsInv("JobSeekerID")))
	ont.AssertConcept("Person", "a")
	ont.AssertConcept("Person", "b")
	ont.AssertConcept("Employed", "a")

	src, err := ont.ToDatalog()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("translated guarded normal Datalog± program:")
	fmt.Println(src)

	st := atom.NewStore(term.NewStore())
	prog, db, err := ont.Compile(st)
	if err != nil {
		log.Fatal(err)
	}
	m := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	if !m.Exact {
		log.Fatal("employment chase should saturate")
	}

	fmt.Println("well-founded model (true atoms):")
	for _, g := range m.TrueAtoms() {
		fmt.Println(" ", st.String(g))
	}

	// The paper's three highlighted consequences.
	for _, check := range []string{"employeeID", "jobSeekerID", "validID"} {
		p, ok := st.LookupPred(check)
		if !ok {
			log.Fatalf("missing predicate %s", check)
		}
		found := 0
		for _, g := range m.TrueAtoms() {
			if st.PredOf(g) == p {
				found++
			}
		}
		fmt.Printf("derived %-12s atoms: %d\n", check, found)
	}
}
