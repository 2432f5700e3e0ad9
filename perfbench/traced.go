package main

// The traced run (--trace 1) and every Go-API call it makes live in this
// file; the timed path (--trace 0) reaches the program only over HTTP.
//
// A traced run sets the workload up once and replays its operation
// stream, with the same seed, in three passes:
//
//  1. untraced, over HTTP, for --seconds: the reference latencies, the
//     counters of /v1/stats taken before and after, and the Go
//     runtime's allocation counts;
//  2. over HTTP with the benchmark's own spans around each round trip
//     and around Handler().ServeHTTP, for --seconds/4: the HTTP and
//     server shares and the tracing overhead;
//  3. through the program's traced entry points (LoadWithOptionsTraced,
//     SnapshotTraced, AnswerCtxTraced, ApplyCtxTraced, WarmRebased), each
//     operation under a root span of the benchmark, for --seconds/4: the
//     self time of every production phase, by the span names /v1/traces
//     shows.

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	wfs "repro"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/wal"
)

// handlerClock is the benchmark's span around Handler().ServeHTTP. It
// records the handler time of each request that carries clockHeader,
// under the trace ID the server puts on the response.
type handlerClock struct {
	mu  sync.Mutex
	dur map[string]time.Duration
}

func (c *handlerClock) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(clockHeader) == "" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		c.mu.Lock()
		c.dur[w.Header().Get("X-Trace-Id")] = d
		c.mu.Unlock()
	})
}

// counters is one reading of the server's statistics and the Go
// runtime's allocation counts.
type counters struct {
	stats server.ServerStatsResponse
	mem   runtime.MemStats
}

func (f *fixture) readCounters() (counters, error) {
	var c counters
	err := f.d.get("/v1/stats", &c.stats)
	runtime.ReadMemStats(&c.mem)
	return c, err
}

// inServer is the split of the requests of pass 2 that the flight
// recorder kept in its uniform reservoir: summed round trip, handler
// span, and the union of the wfs phases under the request's root span
// in the production span tree of /v1/traces.
type inServer struct {
	n                   int
	rtt, handler, inWFS time.Duration
}

func (f *fixture) serverSplit(clock *handlerClock, h *tally) (inServer, error) {
	var out inServer
	rtts := map[string]time.Duration{}
	for _, s := range h.samples {
		for i, id := range s.ids {
			rtts[id] = s.rtts[i]
		}
	}
	var idx server.TraceIndexResponse
	if err := f.d.get("/v1/traces", &idx); err != nil {
		return out, err
	}
	for _, ts := range idx.Traces {
		handler, ok := clock.dur[ts.TraceID]
		if !ok || ts.Kept != trace.KeptSampled {
			continue
		}
		// Each GET is a request the reservoir may keep in place of one
		// listed in the index; an entry evicted since is skipped.
		var rt trace.RequestTrace
		if err := f.d.get("/v1/traces/"+ts.TraceID, &rt); err != nil || rt.Trace == nil {
			continue
		}
		root := toSpan(rt.Trace)
		out.n++
		out.rtt += rtts[ts.TraceID]
		out.handler += handler
		out.inWFS += time.Duration(root.end - root.start - selfTime(root))
	}
	return out, nil
}

// phases accumulates, per operation class, the self time of every
// production phase and the counters the spans carry.
type phases struct {
	mu      sync.Mutex
	n       map[opKind]int
	root    map[opKind]int64            // summed root-span durations, ns
	self    map[opKind]map[string]int64 // phase -> summed self time, ns
	ctr     map[string]int64            // summed span counters
	atoms   int64                       // summed per-op max chase_atoms
	rungs   int64                       // ladder rungs over answered queries
	answers int64
	builds  int64 // build-depth-N spans
	rebases int64 // of those, served by a delta rebase
	ckptNS  int64 // benchmark-owned checkpoints
	ckpts   int64
}

func newPhases() *phases {
	return &phases{n: map[opKind]int{}, root: map[opKind]int64{}, self: map[opKind]map[string]int64{}, ctr: map[string]int64{}}
}

// phaseName folds the per-depth span names into one phase each.
func phaseName(n string) string {
	switch {
	case strings.HasPrefix(n, "build-depth-"):
		return "build-depth"
	case strings.HasPrefix(n, "depth-"):
		return "depth"
	}
	return n
}

// toSpan converts a recorded phase tree to the benchmark's interval form.
func toSpan(t *trace.EvalTrace) *span {
	s := &span{name: phaseName(t.Name), start: t.StartUS * 1000, end: (t.StartUS + t.DurUS) * 1000, counters: t.Counters}
	for _, c := range t.Children {
		s.children = append(s.children, toSpan(c))
	}
	return s
}

func (p *phases) add(kind opKind, root *trace.Span, stats *core.AnswerStats) {
	tree := toSpan(root.Trace())
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n[kind]++
	p.root[kind] += tree.end - tree.start
	if p.self[kind] == nil {
		p.self[kind] = map[string]int64{}
	}
	var atoms int64
	tree.walk(func(s *span) {
		if s != tree {
			p.self[kind][s.name] += selfTime(s)
		}
		for k, v := range s.counters {
			p.ctr[k] += v
		}
		atoms = max(atoms, s.counters["chase_atoms"])
		if s.name == "build-depth" {
			p.builds++
			rebased := false
			s.walk(func(c *span) { rebased = rebased || c.name == "delta-rebase" })
			if rebased {
				p.rebases++
			}
		}
	})
	p.atoms += atoms
	if stats != nil {
		p.answers++
		p.rungs += int64(len(stats.Depths))
	}
}

// perOp is a phase's self time per operation of the classes it occurs
// in: on serve-mixed, wal-fsync is per mutation, reground per read or
// mutation.
func (p *phases) perOp(phase string) time.Duration {
	var ns int64
	var n int
	for kind, m := range p.self {
		if v, ok := m[phase]; ok {
			ns += v
			n += p.n[kind]
		}
	}
	if n == 0 {
		return 0
	}
	return time.Duration(ns / int64(n))
}

func (p *phases) meanRoot(kind opKind) time.Duration {
	if p.n[kind] == 0 {
		return 0
	}
	return time.Duration(p.root[kind] / int64(p.n[kind]))
}

// apiPass replays the operation stream through the traced entry points.
func (f *fixture) apiPass(seconds time.Duration, src, walDir string) (*phases, *tally, error) {
	p, t := newPhases(), &tally{}
	ctx := context.Background()
	start := time.Now()
	if !f.w.serve {
		opts := wfs.Options{}
		for time.Since(start) < seconds || p.n[opCold] < 10 {
			q, want, exact := f.coldQuery()
			root := trace.New("cold")
			opStart := time.Now()
			sys, err := wfs.LoadWithOptionsTraced(src, opts, root)
			var ans wfs.Truth
			var stats *core.AnswerStats
			if err == nil {
				var snap *wfs.Snapshot
				if snap, err = sys.SnapshotTraced(root); err == nil {
					var pq *wfs.Query
					if pq, err = prepare(root, q); err == nil {
						ans, stats, err = snap.AnswerCtxTraced(ctx, pq, root)
					}
				}
			}
			root.End()
			if err == nil && (ans.String() != want || stats.Exact != exact) {
				err = fmt.Errorf("%s = %s (exact %v), want %s (exact %v)", q, ans, stats.Exact, want, exact)
			}
			t.add(sample{kind: opCold, lat: time.Since(opStart), failed: err != nil}, err)
			p.add(opCold, root, stats)
		}
		t.wall = time.Since(start)
		return p, t, nil
	}
	sess, err := f.d.srv.Registry().Get("game")
	if err != nil {
		return nil, nil, err
	}
	var wg sync.WaitGroup
	for _, s := range f.streams {
		wg.Add(1)
		go func(s *stream) {
			defer wg.Done()
			for time.Since(start) < seconds {
				o := s.next()
				root := trace.New(o.kind.String())
				opStart := time.Now()
				var stats *core.AnswerStats
				var err error
				if o.kind == opMutate {
					err = applyToggle(ctx, sess.Sys, s.game, o.k.c, root)
				} else {
					stats, err = readAPI(ctx, sess.Sys, s.game, o.k, root)
				}
				root.End()
				t.add(sample{kind: o.kind, lat: time.Since(opStart), failed: err != nil}, err)
				p.add(o.kind, root, stats)
			}
		}(s)
	}
	wg.Wait()
	t.wall = time.Since(start)
	if f.w.wal {
		n := max(1, p.n[opMutate]/checkpointRecords)
		if err := checkpoints(sess.Sys, src, walDir, n, p); err != nil {
			return nil, nil, err
		}
	}
	return p, t, nil
}

// prepare parses a query under the benchmark's own "prepare" span:
// wfs.Prepare has no traced form.
func prepare(root *trace.Span, q string) (*wfs.Query, error) {
	sp := root.Child("prepare")
	defer sp.End()
	return wfs.Prepare(q)
}

// readAPI makes the wfs calls a /query or /select handler makes on a
// cache miss and checks the answer against the oracle.
func readAPI(ctx context.Context, sys *wfs.System, g *game, k key, root *trace.Span) (*core.AnswerStats, error) {
	q, err := prepare(root, k.text())
	if err != nil {
		return nil, err
	}
	snap, err := sys.SnapshotTraced(root)
	if err != nil {
		return nil, err
	}
	if k.sel {
		sp := root.Child("select") // Snapshot.Select has no traced form
		_, tuples, err := snap.Select(q)
		sp.End()
		if want := g.selectAnswer(k.c, k.i); err == nil && fmt.Sprint(tuples) != fmt.Sprint(want) {
			err = fmt.Errorf("%s = %v, want %v", k.text(), tuples, want)
		}
		return nil, err
	}
	ans, stats, err := snap.AnswerCtxTraced(ctx, q, root)
	if want := fmt.Sprint(g.win(k.c, k.i)); err == nil && ans.String() != want {
		err = fmt.Errorf("%s = %s, want %s", k.text(), ans, want)
	}
	return stats, err
}

// applyToggle makes the wfs calls of a /facts or /retract handler:
// apply the delta (validate, WAL append and fsync through the session's
// commit hook, commit), publish the snapshot, and rebase the warm rungs.
func applyToggle(ctx context.Context, sys *wfs.System, g *game, c int, root *trace.Span) error {
	d := wfs.NewDelta()
	from, to := node(c, cutNode), node(c, cutNode+1)
	if g.cut[c] {
		d.Add("move", from, to)
	} else {
		d.Retract("move", from, to)
	}
	if err := sys.ApplyCtxTraced(ctx, d, root); err != nil {
		return err
	}
	g.cut[c] = !g.cut[c]
	snap, err := sys.SnapshotTraced(root)
	if err != nil {
		return err
	}
	snap.WarmRebased(root)
	return nil
}

// checkpoints writes n checkpoints of the session's current state to a
// log of the benchmark's own: wfsd writes its checkpoints in the
// background, outside any request, where no span of the caller reaches.
func checkpoints(sys *wfs.System, src, dir string, n int, p *phases) error {
	m, err := wal.Open(dir, wal.Options{Fsync: true, CheckpointRecords: -1, CheckpointBytes: -1})
	if err != nil {
		return err
	}
	dump := func() wal.Checkpoint {
		facts, epoch := sys.DumpState()
		return wal.Checkpoint{Source: src, Epoch: epoch, Facts: facts}
	}
	lg, err := m.Create("checkpoint", dump())
	if err == nil {
		for i := 0; i < n && err == nil; i++ {
			root := trace.New("checkpoint")
			err = lg.CheckpointTraced(dump, root)
			root.End()
			p.ckptNS += root.Duration().Nanoseconds()
			p.ckpts++
		}
	}
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	return err
}

// runTraced is the --trace 1 run.
func runTraced(w workload, seed uint64, seconds time.Duration, runDir string) (_ *result, err error) {
	clock := &handlerClock{dur: map[string]time.Duration{}}
	f, err := setup(w, seed, filepath.Join(runDir, "wal"), clock)
	if err != nil {
		return nil, err
	}
	defer func() {
		if serr := f.d.stop(); err == nil {
			err = serr
		}
	}()
	res := &result{Metrics: map[string]metric{}}
	res.count(f.setup)
	src := w.program(seed)

	before, err := f.readCounters()
	if err != nil {
		return nil, err
	}
	u := f.measure(seconds, f.tailSupported, false)
	after, err := f.readCounters()
	if err != nil {
		return nil, err
	}
	res.count(u)

	// Pass 2 times every other operation of each client, so its timed
	// and untimed operations meet the same server state.
	h := f.measure(seconds/4, nil, true)
	res.count(h)
	split, err := f.serverSplit(clock, h)
	if err != nil {
		return nil, err
	}

	p, g, err := f.apiPass(seconds/4, src, filepath.Join(runDir, "bench-wal"))
	if err != nil {
		return nil, err
	}
	res.count(g)

	l := &layers{res: res, u: u, h: h, p: p, before: before, after: after, clock: clock, split: split, tail: w.tail, facts: countFacts(src)}
	l.report()
	return res, nil
}

func countFacts(src string) int {
	n := 0
	for _, l := range strings.Split(src, "\n") {
		if l != "" && !strings.Contains(l, "->") {
			n++
		}
	}
	return n
}
