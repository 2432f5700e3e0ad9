// Warm-started WFS evaluation for incremental updates.
//
// The well-founded semantics has the relevance property: the truth value
// of an atom is determined by its dependency cone — the rules for it,
// the rules for their body atoms, and so on. After a delta, therefore,
// only atoms whose cone contains a change can change truth value. Those
// are exactly the atoms reachable from the changed atoms in the forward
// (body → head) direction of the dependency graph, through positive and
// negative occurrences alike.
//
// IncrementalModel exploits this: it closes the changed seeds forward
// into an "affected" set, extracts the affected subprogram with the
// unaffected boundary atoms replaced by their (provably unchanged)
// previous truth values — true boundary atoms become facts, false ones
// vanish, undefined ones are pinned undefined by a self-blocking rule
// u ← not u — solves the subprogram with the configured WFS algorithm,
// and merges the sub-model over the previous one. By the splitting
// theorem for WFS (unaffected atoms form a bottom stratum: none of their
// rules mentions an affected atom, or the head would be affected), the
// merge is the exact well-founded model of the new program; the delta
// cross-check suite verifies this against from-scratch evaluation under
// all four algorithms.
//
// The forward closure runs on the dependency-graph condensation
// (Program.Condensation) rather than atom-by-atom: seeds mark their
// components, marks propagate along the condensation's dependent edges,
// and the affected set is the union of the marked components' atoms.
// The two closures are the same set — an SCC is mutually reachable, so
// forward-reachability from a seed reaches either all of a component or
// none of it — but the component-level walk traverses each dependency
// edge once instead of once per atom occurrence, and the condensation is
// shared with the modular solver that evaluates the subprogram.
package ground

import (
	"repro/internal/atom"
	"repro/internal/cancel"
	"repro/internal/trace"
)

// cancelPollEvery is how many closure-stack pops run between token
// polls during the cone walk — the walk touches each condensation edge
// once, so component granularity would poll too rarely on star-shaped
// graphs and per-pop would poll too often on chains.
const cancelPollEvery = 256

// IncrementalModel computes the well-founded model of gp by warm-starting
// from prev, the model of an earlier revision of the program sharing gp's
// global atom ID space. seeds lists the global atoms whose ground rule
// set changed in the revision (heads of added and deleted rules, added
// and retracted facts); seeds outside gp's universe are ignored (they
// died with their derivations — anything that referenced them is seeded
// through the rules that died). solve runs the configured fixpoint
// algorithm on a (sub)program.
//
// Falls back to solve(gp) when no previous model is available, when the
// programs are not chase-grounded (no global ID space to align on), or
// when the affected cone covers most of the program and solving the
// subprogram would cost as much as solving everything.
//
// Cone sizes (seeds, affected atoms, universe, subprogram rules) become
// counters on tr and the affected-cone solve a cone-solve child span. tok
// (nil = never cancelled) is polled during the cone closure, and an
// interrupted cone solve (the solve closure is expected to carry the
// same token) propagates Interrupted to the merged model. tr and tok may
// each be nil.
func IncrementalModel(gp *Program, prev *Model, seeds []atom.AtomID, solve func(*Program) *Model, tok *cancel.Token, tr *trace.Span) *Model {
	tr.SetCount("seeds", int64(len(seeds)))
	if prev == nil || prev.Prog == nil || gp.Atoms == nil || prev.Prog.Atoms == nil {
		end := tr.Phase("cold-solve")
		defer end()
		return solve(gp)
	}
	n := gp.NumAtoms()
	endClosure := tr.Phase("cone-closure")
	cond := gp.closureCondensation()
	affComp := make([]bool, cond.NumComps())
	var stack []int32
	nAff := 0
	mark := func(ci int32) {
		if !affComp[ci] {
			affComp[ci] = true
			nAff += cond.CompSize(ci)
			stack = append(stack, ci)
		}
	}
	for _, g := range seeds {
		if i := gp.Local(g); i >= 0 {
			mark(cond.Comp[i])
		}
	}
	budget := cancelPollEvery
	for len(stack) > 0 {
		if budget--; budget <= 0 {
			budget = cancelPollEvery
			if tok.Cancelled() {
				endClosure()
				return &Model{Prog: gp, Truth: make([]Truth, n), Interrupted: true}
			}
		}
		ci := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, d := range cond.DependentsOf(ci) {
			mark(d)
		}
	}
	endClosure()
	tr.SetCount("affected_atoms", int64(nAff))
	tr.SetCount("universe_atoms", int64(n))
	affected := func(i int32) bool { return affComp[cond.Comp[i]] }
	prevTruth := func(i int32) Truth { return prev.TruthOfGlobal(gp.Atoms[i]) }
	// Merged models report the full program's condensation shape, so the
	// observability stats survive delta applies (the steady-state path of
	// a mutating session) instead of zeroing after the first mutation.
	wrap := func(out []Truth, rounds int) *Model {
		return &Model{
			Prog:       gp,
			Truth:      out,
			Rounds:     rounds,
			SCCs:       cond.NumComps(),
			LargestSCC: cond.LargestComp,
			HardSCCs:   cond.NumHard,
		}
	}
	if nAff == 0 {
		out := make([]Truth, n)
		for i := range out {
			out[i] = prevTruth(int32(i))
		}
		return wrap(out, 0)
	}
	if nAff*4 > n {
		end := tr.Phase("cold-solve")
		defer end()
		return solve(gp)
	}

	// Build the affected subprogram over a dense sub-index. Unaffected
	// body atoms either resolve away (true/false) or enter as boundary
	// atoms pinned undefined.
	subIdx := make(map[int32]int32, nAff)
	var subAtoms []int32 // sub index → gp-local index
	subOf := func(i int32) int32 {
		if si, ok := subIdx[i]; ok {
			return si
		}
		si := int32(len(subAtoms))
		subIdx[i] = si
		subAtoms = append(subAtoms, i)
		return si
	}
	var subRules []Rule
	for a := int32(0); int(a) < n; a++ {
		if !affected(a) {
			continue
		}
		sa := subOf(a)
		for _, ri := range gp.rulesByHead[a] {
			r := &gp.Rules[ri]
			nr := Rule{Head: sa}
			keep := true
			for _, b := range r.Pos {
				if affected(b) {
					nr.Pos = append(nr.Pos, subOf(b))
					continue
				}
				switch prevTruth(b) {
				case True: // satisfied: drop the literal
				case False:
					keep = false
				default: // undefined boundary: keep, pinned below
					nr.Pos = append(nr.Pos, subOf(b))
				}
				if !keep {
					break
				}
			}
			if keep {
				for _, b := range r.Neg {
					if affected(b) {
						nr.Neg = append(nr.Neg, subOf(b))
						continue
					}
					switch prevTruth(b) {
					case True:
						keep = false
					case False: // satisfied: drop the literal
					default:
						nr.Neg = append(nr.Neg, subOf(b))
					}
					if !keep {
						break
					}
				}
			}
			if keep {
				subRules = append(subRules, nr)
			}
		}
	}
	// Pin every unaffected boundary atom to its previous (undefined)
	// truth with u ← not u. True/false boundary atoms never reached
	// subOf, so everything here beyond the affected prefix is undefined.
	for si := int32(0); int(si) < len(subAtoms); si++ {
		if !affected(subAtoms[si]) {
			subRules = append(subRules, Rule{Head: si, Neg: []int32{si}})
		}
	}
	tr.SetCount("sub_rules", int64(len(subRules)))
	endSolve := tr.Phase("cone-solve")
	sm := solve(New(len(subAtoms), subRules))
	endSolve()
	if sm.Interrupted {
		return &Model{Prog: gp, Truth: make([]Truth, n), Interrupted: true}
	}

	out := make([]Truth, n)
	for i := int32(0); int(i) < n; i++ {
		if affected(i) {
			out[i] = sm.Truth[subIdx[i]]
		} else {
			out[i] = prevTruth(i)
		}
	}
	return wrap(out, sm.Rounds)
}
