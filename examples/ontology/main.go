// Ontology: a larger DL-Lite_{R,⊓,not} knowledge base (university domain)
// exercising role inclusions, inverse roles, default negation, and
// disjointness constraints under the standard WFS with UNA — the
// ontological-reasoning application the paper targets.
//
// Run with: go run ./examples/ontology
package main

import (
	"fmt"
	"log"

	wfs "repro"
	"repro/internal/dllite"
)

func main() {
	o := dllite.New()

	// TBox: every professor teaches something; teachers are staff; PhD
	// students without an advisor are flagged as unsupervised; advised
	// students are supervised; supervision is a form of working-with.
	o.SubClass(dllite.Exists("teaches"), dllite.Pos(dllite.Atomic("Professor")))
	o.SubClass(dllite.Atomic("Staff"), dllite.Pos(dllite.Exists("teaches")))
	o.SubClass(dllite.Atomic("Course"), dllite.Pos(dllite.ExistsInv("teaches")))
	o.SubClass(dllite.Atomic("Unsupervised"),
		dllite.Pos(dllite.Atomic("PhDStudent")),
		dllite.Not(dllite.ExistsInv("advises")))
	o.SubClass(dllite.Atomic("Supervised"),
		dllite.Pos(dllite.Atomic("PhDStudent")),
		dllite.Pos(dllite.ExistsInv("advises")))
	o.SubRole(dllite.Role{Name: "advises"}, dllite.Role{Name: "worksWith"})
	// Disjointness: nobody is both supervised and unsupervised.
	o.Disjoint(dllite.Atomic("Supervised"), dllite.Atomic("Unsupervised"))

	// ABox.
	o.AssertConcept("Professor", "turing")
	o.AssertConcept("Professor", "church")
	o.AssertConcept("PhDStudent", "alice")
	o.AssertConcept("PhDStudent", "bob")
	o.AssertRole("advises", "turing", "alice")

	src, err := o.ToDatalog()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("translated program:")
	fmt.Println(src)

	sys, err := wfs.Load(src)
	if err != nil {
		log.Fatal(err)
	}

	queries := []string{
		"? staff(turing).",               // via ∃teaches with a null object
		"? course(X).",                   // the null course exists
		"? supervised(alice).",           // advised by turing
		"? unsupervised(bob).",           // closed-world default
		"? worksWith(turing, X).",        // role inclusion
		"? supervised(X), not staff(X).", // NBCQ mixing both polarities
		"? unsupervised(alice).",         // must be false
	}
	fmt.Println("NBCQ answers:")
	for _, qs := range queries {
		ans, err := sys.Answer(qs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-34s %s\n", qs, ans)
	}

	if vs := sys.CheckConstraints(); len(vs) == 0 {
		fmt.Println("\nno disjointness violations — knowledge base is consistent")
	} else {
		fmt.Println("\nviolations:")
		for _, v := range vs {
			fmt.Println(" ", v)
		}
	}
}
