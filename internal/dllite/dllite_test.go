package dllite

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/program"
	"repro/internal/term"
)

// employment builds the paper's Example 2 ontology with its ABox.
func employment() *Ontology {
	o := New()
	o.SubClass(Exists("EmployeeID"),
		Pos(Atomic("Person")), Pos(Atomic("Employed")), Not(Exists("JobSeekerID")))
	o.SubClass(Exists("JobSeekerID"),
		Pos(Atomic("Person")), Not(Atomic("Employed")), Not(Exists("EmployeeID")))
	o.SubClass(Atomic("ValidID"),
		Pos(ExistsInv("EmployeeID")), Not(ExistsInv("JobSeekerID")))
	o.AssertConcept("Person", "a")
	o.AssertConcept("Person", "b")
	o.AssertConcept("Employed", "a")
	return o
}

func evaluate(t *testing.T, o *Ontology) (*core.Model, *atom.Store) {
	t.Helper()
	st := atom.NewStore(term.NewStore())
	prog, db, err := o.Compile(st)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	return m, st
}

func truthOf(t *testing.T, m *core.Model, st *atom.Store, atomSrc string) ground.Truth {
	t.Helper()
	q, err := program.ParseQuery("? "+atomSrc+".", st)
	if err != nil {
		t.Fatalf("parse %s: %v", atomSrc, err)
	}
	if q.NumVars > 0 {
		// Existentially quantified check: answer the query.
		return m.Answer(q)
	}
	sub := atom.NewSubst(0)
	return m.Truth(st.Instantiate(q.Pos[0], sub))
}

// TestExample2PaperConsequences verifies the exact consequences the paper
// derives in §1: EmployeeID(a, f(a)), JobSeekerID(b, g(b)), and — because
// f(a) ≠ g(b) under UNA — ValidID(f(a)).
func TestExample2PaperConsequences(t *testing.T) {
	m, st := evaluate(t, employment())
	if !m.Exact {
		t.Fatalf("employment chase should saturate")
	}
	for _, q := range []string{
		"employeeID(a, X)",
		"jobSeekerID(b, X)",
		"validID(X)",
	} {
		if got := truthOf(t, m, st, q); got != ground.True {
			t.Errorf("%s = %v, want true", q, got)
		}
	}
	// a is employed: not a job seeker; b is not employed: no employee ID.
	for _, q := range []string{"jobSeekerID(a, X)", "employeeID(b, X)"} {
		if got := truthOf(t, m, st, q); got != ground.False {
			t.Errorf("%s = %v, want false", q, got)
		}
	}
	// The valid ID is exactly the null f(a): the Skolem term from the
	// first concept inclusion applied to a.
	valid, _ := st.LookupPred("validID")
	count := 0
	for _, g := range m.TrueAtoms() {
		if st.PredOf(g) == valid {
			count++
			arg := st.Args(g)[0]
			if st.Terms.Kind(arg) != term.Skolem {
				t.Errorf("validID over a non-null term %s", st.Terms.String(arg))
			}
		}
	}
	if count != 1 {
		t.Errorf("validID count = %d, want 1", count)
	}
}

func TestTranslationShape(t *testing.T) {
	src, err := employment().ToDatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"person(X), employed(X), not ex_jobSeekerID(X) -> employeeID(X, Z).",
		"person(X), not employed(X), not ex_employeeID(X) -> jobSeekerID(X, Z).",
		"exinv_employeeID(X), not exinv_jobSeekerID(X) -> validID(X).",
		"employeeID(X, Y) -> ex_employeeID(X).",
		"employeeID(X, Y) -> exinv_employeeID(Y).",
		"person(a).",
		"employed(a).",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("translation missing %q:\n%s", want, src)
		}
	}
	// Aux rules must not be duplicated.
	if strings.Count(src, "employeeID(X, Y) -> ex_employeeID(X).") != 1 {
		t.Errorf("duplicated aux rule:\n%s", src)
	}
}

func TestRoleInclusionsAndInverse(t *testing.T) {
	o := New()
	o.SubRole(Role{Name: "advises"}, Role{Name: "worksWith"})
	o.SubRole(Role{Name: "advises", Inverse: true}, Role{Name: "advisedBy"})
	o.AssertRole("advises", "t", "a")
	m, st := evaluate(t, o)
	if got := truthOf(t, m, st, "worksWith(t, a)"); got != ground.True {
		t.Errorf("role inclusion failed: %v", got)
	}
	if got := truthOf(t, m, st, "advisedBy(a, t)"); got != ground.True {
		t.Errorf("inverse role inclusion failed: %v", got)
	}
}

func TestDisjointnessBecomesConstraint(t *testing.T) {
	o := New()
	o.Disjoint(Atomic("Cat"), Atomic("Dog"))
	o.AssertConcept("Cat", "rex")
	o.AssertConcept("Dog", "rex")
	st := atom.NewStore(term.NewStore())
	prog, db, err := o.Compile(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Constraints) != 1 {
		t.Fatalf("constraints = %d, want 1", len(prog.Constraints))
	}
	m := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	if m.Consistent() {
		t.Errorf("disjointness violation not detected")
	}
}

func TestDisjointnessOverExistentials(t *testing.T) {
	o := New()
	o.Disjoint(Exists("owns"), Atomic("Banned"))
	o.AssertRole("owns", "a", "x")
	o.AssertConcept("Banned", "a")
	st := atom.NewStore(term.NewStore())
	prog, db, err := o.Compile(st)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	if m.Consistent() {
		t.Errorf("∃owns ⊓ Banned violation not detected")
	}
}

func TestNoPositiveBodyRejected(t *testing.T) {
	o := New()
	o.SubClass(Atomic("Weird"), Not(Atomic("Anything")))
	if _, err := o.ToDatalog(); !errors.Is(err, ErrNoPositiveBody) {
		t.Errorf("error = %v, want ErrNoPositiveBody", err)
	}
}

func TestMangle(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"Person", "person"},
		{"person", "person"},
		{"EmployeeID", "employeeID"},
		{"É", "é"},
	} {
		if got := Mangle(tc.in); got != tc.want {
			t.Errorf("Mangle(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if Exists("R").String() != "∃R" {
		t.Errorf("Exists stringer wrong")
	}
	if ExistsInv("R").String() != "∃R⁻" {
		t.Errorf("ExistsInv stringer wrong")
	}
	if Not(Atomic("A")).String() != "not A" {
		t.Errorf("Lit stringer wrong")
	}
	if (Role{Name: "r", Inverse: true}).Inv() != (Role{Name: "r"}) {
		t.Errorf("Inv wrong")
	}
}

// TestEFWFSContrast reproduces the §1 contrast: under UNA the WFS model is
// total (no undefined atoms) on the employment example, and the valid-ID
// conclusion is reached — the thing EFWFS cannot do.
func TestEFWFSContrast(t *testing.T) {
	m, _ := evaluate(t, employment())
	if m.GM.CountUndefined() != 0 {
		t.Errorf("employment model has undefined atoms")
	}
}

func TestFunctionalRoleEGD(t *testing.T) {
	o := New()
	o.Functional(Role{Name: "hasID"})
	o.AssertRole("hasID", "a", "k1")
	o.AssertRole("hasID", "a", "k2")
	st := atom.NewStore(term.NewStore())
	prog, db, err := o.Compile(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.EGDs) != 1 {
		t.Fatalf("EGDs = %d, want 1", len(prog.EGDs))
	}
	m := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	vs := m.CheckConstraints()
	if len(vs) != 1 || vs[0].Kind != "egd" {
		t.Errorf("functionality violation not detected: %+v", vs)
	}
}

func TestFunctionalInverseRole(t *testing.T) {
	o := New()
	o.Functional(Role{Name: "owns", Inverse: true}) // at most one owner
	o.AssertRole("owns", "a", "car")
	o.AssertRole("owns", "b", "car")
	st := atom.NewStore(term.NewStore())
	prog, db, err := o.Compile(st)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Evaluate(prog, db, core.Options{}, 0, nil, nil)
	if len(m.CheckConstraints()) != 1 {
		t.Errorf("inverse functionality violation not detected")
	}
}
