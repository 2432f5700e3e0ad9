// Package strat implements the stratified-negation baseline semantics for
// guarded Datalog± with negation (Calì–Gottlob–Lukasiewicz [1], discussed
// in §1): the iterated least fixpoint (perfect model) computed bottom-up
// over the bounded chase. On stratified programs the well-founded
// semantics coincides with this model (one of the WFS's defining
// properties, §1), which experiment E5 and the cross-check tests verify;
// on non-stratified programs this baseline is simply inapplicable — the
// gap the paper's WFS fills.
package strat

import (
	"errors"

	"repro/internal/chase"
	"repro/internal/core"
	"repro/internal/ground"
	"repro/internal/program"
)

// ErrNotStratified reports that the program has a cycle through negation.
var ErrNotStratified = errors.New("strat: program is not stratified")

// Evaluate computes the perfect model of db under prog at the given chase
// depth. It fails with ErrNotStratified when no stratification exists.
//
// The solve runs on the ground dependency-graph condensation
// (ground.SolveModular) rather than a predicate-level stratum schedule: a
// predicate stratification guarantees the ground program has no negation
// cycle, so every component takes the modular solver's single
// least-fixpoint pass and the evaluation order induced by the
// condensation *is* an (atom-granular) stratification — the iterated
// least fixpoint and the WFS coincide rule-for-rule. This retires the
// previous duplicate machinery (per-atom strata inherited from the
// predicate stratification driving a dedicated iterated solver) in favor
// of the one evaluation path the engine already uses.
func Evaluate(prog *program.Program, db program.Database, depth int) (*core.Model, error) {
	if _, ok := prog.Stratify(); !ok {
		return nil, ErrNotStratified
	}
	if depth <= 0 {
		depth = core.DefaultDepth
	}
	res := chase.Run(prog, db, chase.Options{MaxDepth: depth, MaxAtoms: 4_000_000})
	gp := ground.FromChase(res)
	// The algorithm argument only runs inside negation-cyclic components,
	// of which a stratified program has none; it is the fallback for the
	// degenerate single-component condensation.
	gm := ground.SolveModular(gp, ground.AlternatingFixpoint, nil, nil)
	stats := res.ComputeStats()
	return &core.Model{
		Chase: res,
		GP:    gp,
		GM:    gm,
		Exact: !res.Truncated && stats.MaxDepth < depth,
	}, nil
}
