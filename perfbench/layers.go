package main

import (
	"fmt"
	"time"
)

// perLayer are the metrics of a --trace 1 run, named
// <production phase or module>.<metric>. README.md maps each to the
// end-to-end metric and workload it should move. A metric of a layer
// the workload does not reach reads 0.
var perLayer = []metricDef{
	// internal/server and the HTTP round trip (passes 1 and 2).
	{"server.self_us", "us"},
	{"http.roundtrip_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"server.singleflight_shared", "count"},
	{"server.limiter_waiting", "count"},
	{"server.rejected", "count"},
	// internal/parser, internal/program, internal/analysis.
	{"parse-compile.self_ms", "ms"},
	{"parse-compile.us_per_fact", "us"},
	{"analyze.self_ms", "ms"},
	// internal/chase.
	{"chase.self_ms", "ms"},
	{"chase-extend.self_ms", "ms"},
	{"chase.atoms", "count"},
	{"chase.atoms_per_ms", "1/ms"},
	// internal/ground.
	{"ground.self_ms", "ms"},
	{"reground.self_ms", "ms"},
	{"condense.self_ms", "ms"},
	{"condense.sccs", "count"},
	{"solve.self_ms", "ms"},
	{"solve.rounds", "count"},
	{"solve.workers", "count"},
	{"cone-closure.self_ms", "ms"},
	{"cone-solve.self_ms", "ms"},
	// internal/core.
	{"core.rungs_per_answer", "count"},
	{"depth.self_ms", "ms"},
	{"match.self_us", "us"},
	{"select.self_us", "us"},
	{"prepare.self_us", "us"},
	// root package wfs: snapshots and builds.
	{"snapshot-publish.self_ms", "ms"},
	{"precompute.self_ms", "ms"},
	{"wfs.builds", "count"},
	{"wfs.rebases", "count"},
	{"wfs.rebase_ratio", "ratio"},
	{"apply.self_us", "us"},
	{"validate.self_us", "us"},
	{"commit.self_us", "us"},
	// internal/delta.
	{"delta-rebase.self_ms", "ms"},
	{"diff.self_ms", "ms"},
	{"retract.self_ms", "ms"},
	{"extend-db.self_ms", "ms"},
	{"warm-solve.self_ms", "ms"},
	{"delta.affected_atoms", "count"},
	{"delta.universe_atoms", "count"},
	{"delta.affected_share", "ratio"},
	// internal/wal.
	{"wal-append.self_us", "us"},
	{"wal-fsync.self_us", "us"},
	{"wal.mutations", "count"},
	{"wal.fsyncs", "count"},
	{"wal.fsyncs_per_mutation", "ratio"},
	{"wal.bytes_per_mutation", "B"},
	{"wal.checkpoints", "count"},
	{"wal-checkpoint.ms", "ms"},
	// Go runtime (pass 1, whole process: server and clients).
	{"runtime.alloc_mib_per_op", "MiB"},
	{"runtime.gc_cycles_per_op", "count"},
	// Untraced wall-clock figures of pass 1: the headline operation of
	// the workload (as the timed run's cpu_ms_per_op counts it), then
	// each operation class.
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"ref_ms", "ms"},
	{"cold_p50_ms", "ms"},
	{"cold_p90_ms", "ms"},
	{"cold.samples", "count"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query.samples", "count"},
	{"mutate_p50_ms", "ms"},
	{"mutate_p99_ms", "ms"},
	{"mutate.samples", "count"},
	{"failed_share", "ratio"},
	// Tracing overhead: headline p50 of pass 2 against pass 1.
	{"trace.untraced_p50_ms", "ms"},
	{"trace.traced_p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
	// Where the workload's time goes (see README.md, "Layer shares").
	{"share.parse_chase", "ratio"},
	{"share.extend_reground_condense", "ratio"},
	{"share.server_http", "ratio"},
	{"share.mutation_path", "ratio"},
}

// layers turns the three passes of a traced run into the per-layer
// metrics.
type layers struct {
	res           *result
	u, h          *tally // passes 1 and 2
	p             *phases
	before, after counters // around pass 1
	clock         *handlerClock
	split         inServer
	tail          float64 // the workload's tail percentile
	facts         int
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// pct reports an untraced latency percentile of one class with its
// sample count; a percentile the sample cannot support reads 0.
func (l *layers) pct(name string, lat []time.Duration, q float64) {
	v, err := percentile(lat, q)
	basis := fmt.Sprintf("pass 1 p%g, n=%d", q*100, len(lat))
	if err != nil {
		basis = fmt.Sprintf("pass 1: %v", err)
	}
	l.res.set(name, ms(v), "ms", "%s", basis)
}

func (l *layers) report() {
	r, p := l.res, l.p
	ops := float64(len(l.u.samples))

	// Server and HTTP: pass 2 pairs each timed round trip with its
	// handler span.
	var rtt, handler time.Duration
	var reqs int
	var timed, untimed []time.Duration
	for _, s := range l.h.samples {
		if !s.timed {
			untimed = append(untimed, s.lat)
			continue
		}
		timed = append(timed, s.lat)
		for i, id := range s.ids {
			handler += l.clock.dur[id]
			rtt += s.rtts[i]
			reqs++
		}
	}
	n := float64(max(1, reqs))
	sp := l.split
	sn := float64(max(1, sp.n))
	r.set("server.self_us", us(sp.handler-sp.inWFS)/sn, "us", "pass 2: handler span minus wfs phases of its /v1/traces tree, n=%d kept", sp.n)
	r.set("http.roundtrip_us", us(rtt-handler)/n, "us", "pass 2: round trip minus handler, n=%d", reqs)
	hits := float64(l.after.stats.Cache.Hits - l.before.stats.Cache.Hits)
	miss := float64(l.after.stats.Cache.Misses - l.before.stats.Cache.Misses)
	r.set("server.cache_hit_ratio", ratio(hits, hits+miss), "ratio", "pass 1: %.0f hits / %.0f lookups", hits, hits+miss)
	r.set("server.cache_hits", hits, "count", "pass 1")
	r.set("server.cache_misses", miss, "count", "pass 1")
	r.set("server.singleflight_shared", float64(l.after.stats.SingleflightShared-l.before.stats.SingleflightShared), "count", "pass 1")
	r.set("server.limiter_waiting", float64(l.after.stats.Waiting), "count", "gauge after pass 1, limit %d", l.after.stats.MaxConcurrent)
	r.set("server.rejected", float64(l.after.stats.RejectedTimeout+l.after.stats.RejectedCanceled-l.before.stats.RejectedTimeout-l.before.stats.RejectedCanceled), "count", "pass 1: 429 + 503 from the limiter")

	// Engine phases: self time per operation of the class each occurs in.
	perOpMS := func(name, phase string) {
		r.set(name, ms(p.perOp(phase)), "ms", "pass 3 self time per op, ops=%v", p.n)
	}
	perOpUS := func(name, phase string) {
		r.set(name, us(p.perOp(phase)), "us", "pass 3 self time per op, ops=%v", p.n)
	}
	perOpMS("parse-compile.self_ms", "parse-compile")
	r.set("parse-compile.us_per_fact", ratio(us(p.perOp("parse-compile")), float64(l.facts)), "us", "per EDB fact, %d facts", l.facts)
	perOpMS("analyze.self_ms", "analyze")
	perOpMS("chase.self_ms", "chase")
	perOpMS("chase-extend.self_ms", "chase-extend")
	nAll := float64(max(1, p.n[opCold]+p.n[opRead]+p.n[opMutate]))
	atoms := float64(p.atoms) / nAll
	r.set("chase.atoms", atoms, "count", "pass 3: largest chase_atoms per op")
	r.set("chase.atoms_per_ms", ratio(atoms, ms(p.perOp("chase")+p.perOp("chase-extend"))), "1/ms", "chase.atoms / (chase + chase-extend self ms)")
	perOpMS("ground.self_ms", "ground")
	perOpMS("reground.self_ms", "reground")
	perOpMS("condense.self_ms", "condense")
	r.set("condense.sccs", float64(p.ctr["sccs"])/nAll, "count", "pass 3: sccs counter per op")
	perOpMS("solve.self_ms", "solve")
	r.set("solve.rounds", float64(p.ctr["rounds"])/nAll, "count", "pass 3: rounds counter per op")
	r.set("solve.workers", ratio(float64(p.ctr["workers"]), float64(max(1, p.builds))), "count", "pass 3: workers per build, %d builds", p.builds)
	perOpMS("cone-closure.self_ms", "cone-closure")
	perOpMS("cone-solve.self_ms", "cone-solve")
	r.set("core.rungs_per_answer", ratio(float64(p.rungs), float64(p.answers)), "count", "pass 3: %d rungs / %d answers", p.rungs, p.answers)
	perOpMS("depth.self_ms", "depth")
	perOpUS("match.self_us", "match")
	perOpUS("select.self_us", "select")
	perOpUS("prepare.self_us", "prepare")
	perOpMS("snapshot-publish.self_ms", "snapshot-publish")
	perOpMS("precompute.self_ms", "precompute")
	r.set("wfs.builds", float64(p.builds), "count", "pass 3 total")
	r.set("wfs.rebases", float64(p.rebases), "count", "pass 3 total")
	r.set("wfs.rebase_ratio", ratio(float64(p.rebases), float64(p.builds)), "ratio", "%d rebases / %d builds", p.rebases, p.builds)
	perOpUS("apply.self_us", "apply")
	perOpUS("validate.self_us", "validate")
	perOpUS("commit.self_us", "commit")
	perOpMS("delta-rebase.self_ms", "delta-rebase")
	perOpMS("diff.self_ms", "diff")
	perOpMS("retract.self_ms", "retract")
	perOpMS("extend-db.self_ms", "extend-db")
	perOpMS("warm-solve.self_ms", "warm-solve")
	aff, uni := float64(p.ctr["affected_atoms"]), float64(p.ctr["universe_atoms"])
	r.set("delta.affected_atoms", aff, "count", "pass 3 total")
	r.set("delta.universe_atoms", uni, "count", "pass 3 total")
	r.set("delta.affected_share", ratio(aff, uni), "ratio", "%.0f affected / %.0f universe atoms", aff, uni)

	// WAL: spans from pass 3, counters from pass 1.
	perOpUS("wal-append.self_us", "wal-append")
	perOpUS("wal-fsync.self_us", "wal-fsync")
	muts := float64(len(l.u.lat(opMutate)))
	var fsyncs, bytes, ckpts float64
	if l.after.stats.WAL != nil && l.before.stats.WAL != nil {
		a, b := l.after.stats.WAL, l.before.stats.WAL
		fsyncs = float64(a.Fsyncs - b.Fsyncs)
		bytes = float64(a.AppendedBytes - b.AppendedBytes)
		ckpts = float64(a.Checkpoints - b.Checkpoints)
	}
	r.set("wal.mutations", muts, "count", "pass 1: acknowledged and failed mutations")
	r.set("wal.fsyncs", fsyncs, "count", "pass 1")
	r.set("wal.fsyncs_per_mutation", ratio(fsyncs, muts), "ratio", "%.0f fsyncs / %.0f mutations", fsyncs, muts)
	r.set("wal.bytes_per_mutation", ratio(bytes, muts), "B", "%.0f bytes / %.0f mutations", bytes, muts)
	r.set("wal.checkpoints", ckpts, "count", "pass 1, one per %d records", checkpointRecords)
	r.set("wal-checkpoint.ms", ratio(float64(p.ckptNS)/1e6, float64(p.ckpts)), "ms", "pass 3: %d checkpoints of the session state", p.ckpts)

	allocs := float64(l.after.mem.TotalAlloc-l.before.mem.TotalAlloc) / (1 << 20)
	r.set("runtime.alloc_mib_per_op", ratio(allocs, ops), "MiB", "pass 1: %.0f MiB over %.0f ops", allocs, ops)
	gcs := float64(l.after.mem.NumGC - l.before.mem.NumGC)
	r.set("runtime.gc_cycles_per_op", ratio(gcs, ops), "count", "pass 1: %.0f cycles over %.0f ops", gcs, ops)

	all := l.u.lat()
	l.pct("p50_ms", all, 0.5)
	l.pct("tail_ms", all, l.tail)
	r.set("ops_per_s", float64(len(all))/l.u.wall.Seconds(), "1/s", "pass 1: %d ops in %.2fs", len(all), l.u.wall.Seconds())
	ref, _ := percentile(l.u.refs(), 0.5)
	r.set("ref_ms", ms(ref), "ms", "pass 1: median time of the reference unit")
	cold, reads, writes := l.u.lat(opCold), l.u.lat(opRead), l.u.lat(opMutate)
	l.pct("cold_p50_ms", cold, 0.5)
	l.pct("cold_p90_ms", cold, 0.9)
	r.set("cold.samples", float64(len(cold)), "count", "pass 1")
	l.pct("query_p50_ms", reads, 0.5)
	l.pct("query_p99_ms", reads, 0.99)
	r.set("query.samples", float64(len(reads)), "count", "pass 1")
	l.pct("mutate_p50_ms", writes, 0.5)
	l.pct("mutate_p99_ms", writes, 0.99)
	r.set("mutate.samples", float64(len(writes)), "count", "pass 1")
	r.set("failed_share", ratio(float64(r.Failed), float64(r.Attempted)), "ratio", "%d failed / %d attempted", r.Failed, r.Attempted)

	uP50, uErr := percentile(untimed, 0.5)
	tP50, tErr := percentile(timed, 0.5)
	r.set("trace.untraced_p50_ms", ms(uP50), "ms", "pass 2 untimed ops, n=%d", len(untimed))
	r.set("trace.traced_p50_ms", ms(tP50), "ms", "pass 2 timed ops, n=%d", len(timed))
	overhead := 0.0
	if uErr == nil && tErr == nil {
		overhead = 100 * ratio(ms(tP50)-ms(uP50), ms(uP50))
	}
	r.set("trace.overhead_pct", overhead, "%", "timed against untimed p50, interleaved in pass 2")

	// Shares: engine phases of the traced cold operation against its
	// whole span, the part of the kept pass 2 requests' round trips
	// outside wfs phases, and a mutation's wfs calls against its
	// untraced mean round trip.
	coldRoot := us(p.meanRoot(opCold))
	r.set("share.parse_chase", ratio(us(p.perOp("parse-compile")+p.perOp("chase")), coldRoot), "ratio", "of the pass 3 cold op, %.0f us", coldRoot)
	r.set("share.extend_reground_condense", ratio(us(p.perOp("chase-extend")+p.perOp("reground")+p.perOp("condense")), coldRoot), "ratio", "of the pass 3 cold op")
	serverHTTP := 0.0
	if sp.n > 0 {
		serverHTTP = 1 - ratio(us(sp.inWFS), us(sp.rtt))
	}
	r.set("share.server_http", serverHTTP, "ratio", "1 - wfs phases / round trip of %d kept requests", sp.n)
	mutMean := mean(writes) / 1e3 // us
	r.set("share.mutation_path", ratio(us(p.meanRoot(opMutate)), mutMean), "ratio", "apply+publish+rebase of the mean mutation, %.0f us", mutMean)

	for _, m := range perLayer {
		if _, ok := r.Metrics[m.name]; !ok {
			panic("per-layer metric not reported: " + m.name)
		}
	}
}
