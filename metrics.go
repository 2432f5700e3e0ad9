package wfs

import (
	"sync/atomic"

	"repro/internal/trace"
)

// EngineMetrics is the always-on observability counter set of one System:
// cumulative model-build work broken down by pipeline phase, maintained
// with atomics so readers (the wfsd /metrics endpoint, session stats)
// never take the system lock and never force evaluation.
//
// The counters are fed by walking each model build's span tree after the
// build completes (snapModel.get records one whether or not the caller
// asked for a query trace). Builds are rare — at most one per chase depth
// per epoch — so the accumulation walk costs nothing measurable, and the
// query hot path (Snapshot.Answer on materialized models) touches no
// atomic at all.
type EngineMetrics struct {
	builds  atomic.Int64 // snapshot models materialized, at most one per depth per snapshot
	rebases atomic.Int64 // of those, served by delta-rebasing a prior epoch

	chaseNS    atomic.Int64 // chase run/extend + delta retract/extend-db
	groundNS   atomic.Int64 // grounding and regrounding
	condenseNS atomic.Int64 // SCC condensation + incremental cone closure
	solveNS    atomic.Int64 // WFS fixpoint (modular, cone, and cold solves)

	chaseAtoms     atomic.Int64 // latest build's derived universe size
	chaseInstances atomic.Int64 // latest build's fired instance count
}

// EngineMetricsSnapshot is one consistent-enough read of EngineMetrics
// (each field is individually atomic; cross-field skew is bounded by one
// in-flight build).
type EngineMetricsSnapshot struct {
	Builds  int64 `json:"builds"`
	Rebases int64 `json:"rebases"`

	ChaseNS    int64 `json:"chase_ns"`
	GroundNS   int64 `json:"ground_ns"`
	CondenseNS int64 `json:"condense_ns"`
	SolveNS    int64 `json:"solve_ns"`

	ChaseAtoms     int64 `json:"chase_atoms"`
	ChaseInstances int64 `json:"chase_instances"`
}

// Read returns the current counter values.
func (em *EngineMetrics) Read() EngineMetricsSnapshot {
	if em == nil {
		return EngineMetricsSnapshot{}
	}
	return EngineMetricsSnapshot{
		Builds:         em.builds.Load(),
		Rebases:        em.rebases.Load(),
		ChaseNS:        em.chaseNS.Load(),
		GroundNS:       em.groundNS.Load(),
		CondenseNS:     em.condenseNS.Load(),
		SolveNS:        em.solveNS.Load(),
		ChaseAtoms:     em.chaseAtoms.Load(),
		ChaseInstances: em.chaseInstances.Load(),
	}
}

// observeBuild folds one finished model-build span tree into the
// counters. Only non-overlapping phase spans are summed — container
// spans (warm-solve, delta-rebase, depth-N) are skipped in favor of
// their leaves, so a nanosecond of work is counted exactly once.
func (em *EngineMetrics) observeBuild(build *trace.Span, rebased bool) {
	if em == nil {
		return
	}
	em.builds.Add(1)
	if rebased {
		em.rebases.Add(1)
	}
	build.Walk(func(s *trace.Span) {
		ns := s.Duration().Nanoseconds()
		switch s.Name() {
		case "chase", "chase-extend", "retract", "extend-db":
			em.chaseNS.Add(ns)
			if n := s.Counter("chase_atoms"); n > 0 {
				em.chaseAtoms.Store(n)
				em.chaseInstances.Store(s.Counter("chase_instances"))
			}
		case "ground", "reground":
			em.groundNS.Add(ns)
		case "condense", "cone-closure":
			em.condenseNS.Add(ns)
		case "solve", "cone-solve", "cold-solve":
			em.solveNS.Add(ns)
		}
	})
}

// Metrics returns the system's always-on engine metrics. The same
// counters accumulate across epochs for the system's whole lifetime.
func (s *System) Metrics() *EngineMetrics { return &s.metrics }
