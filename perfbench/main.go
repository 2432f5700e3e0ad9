// Command perfbench is the repository's end-to-end benchmark of wfsd.
// It drives an in-process wfsd (server.New(...).Handler() on a loopback
// listener) through its HTTP API and reports one JSON result line:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json with no
// tracing of any kind. --trace 1 is a separate run of the same
// operation stream that reports the per-layer metrics (see traced.go).
// GOMAXPROCS is honoured from the environment and reported.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one named input set and traffic mix. BENCHMARK.json and
// README.md record why each was chosen.
type workload struct {
	name   string
	serve  bool    // one long-lived session under closed-loop clients
	mutate float64 // share of serving requests that are mutations
	wal    bool    // data dir with the write-ahead log
	tail   float64 // the tail percentile the sample count supports
}

var workloads = []workload{
	{name: "cold-datalog", tail: 0.90},
	{name: "cold-ontology", tail: 0.90},
	{name: "serve-read", serve: true, tail: 0.99},
	{name: "serve-mixed", serve: true, mutate: mutateShare, wal: true, tail: 0.99},
}

const (
	setupRepeats = 15
	coldWarmups  = 2   // cold operations after the first verified one
	serveWarmups = 100 // reads per client after the first answer
	// minMutations gives serve-mixed's mutations a p99 of their own.
	minMutations = 1000
	// refEvery is how often serving clients pause for a reference unit.
	refEvery = 250 * time.Millisecond
	// maxMeasure caps a pass that has to extend past --seconds to reach
	// its minimum sample count, so a run always ends within 180 s.
	maxMeasure = 100 * time.Second
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of a --trace 0 run. The latencies are in
// reference units (see ref.go): an operation's wall-clock latency
// divided by the time of the reference unit measured beside it. The
// median is the typical operation; the mean is what the closed-loop
// clients' throughput is the inverse of, and on serve-mixed it carries
// the mutations and the reads that first meet a new epoch, which the
// median, a plain read, does not see. The
// tail and the wall-clock figures are printed too, as information: on
// a shared host they spread too widely between runs to gate on.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ref", "ref"},
	{"mean_ref", "ref"},
	{"session_heap_mib", "MiB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per pass")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	var todo []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (all, or one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// "all" runs every workload timed and then traced.
	modes := []bool{*traced == 1}
	if *name == "all" {
		modes = []bool{false, true}
	}
	for _, w := range todo {
		for _, tr := range modes {
			if err := runOne(w, *seed, time.Duration(*seconds)*time.Second, tr); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
				os.Exit(1)
			}
		}
	}
}

// runOne runs one workload in a scratch directory under .bench_build
// and prints its metadata and result lines.
func runOne(w workload, seed uint64, seconds time.Duration, traced bool) error {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if err != nil {
		return err
	}
	res, err := run(w, seed, seconds, traced, runDir)
	if rerr := os.RemoveAll(runDir); err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	printMeta(w, seed, traced)
	out, _ := json.Marshal(res) // plain floats and strings
	fmt.Println(string(out))
	return nil
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

func run(w workload, seed uint64, seconds time.Duration, traced bool, runDir string) (*result, error) {
	if traced {
		return runTraced(w, seed, seconds, runDir)
	}
	var walls, heaps []float64
	var f *fixture
	res := &result{Metrics: map[string]metric{}}
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			if err := f.d.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		f, err = setup(w, seed, filepath.Join(runDir, fmt.Sprint("wal-", i)), nil)
		if err != nil {
			return nil, err
		}
		walls = append(walls, f.setupWall.Seconds())
		heaps = append(heaps, f.heap)
		res.count(f.setup)
	}
	t := f.measure(seconds, f.tailSupported, false)
	if err := f.d.stop(); err != nil {
		return nil, err
	}
	res.count(t)
	all, rel := t.lat(), t.rel()
	p50, err := percentile(rel, 0.5)
	if err != nil {
		return nil, err
	}
	ref, _ := percentile(t.refs(), 0.5)
	n := float64(len(all))
	res.set("setup_s", median(walls)*float64(refNominal)/float64(ref), "s", "median wall time of %d set-ups x %gms / median reference time", setupRepeats, ms(refNominal))
	res.set("p50_ref", p50, "ref", "%s latency / reference unit, n=%d", f.unit(), len(all))
	res.set("mean_ref", mean(rel), "ref", "mean of the same, n=%d; %d closed-loop client(s)", len(all), f.clients())
	res.set("session_heap_mib", median(heaps), "MiB", "median of %d set-ups", setupRepeats)
	info("setup wall", median(walls), "s", "median of the same set-ups' wall times")
	if tail, err := percentile(rel, w.tail); err == nil {
		info(fmt.Sprintf("p%g ref", w.tail*100), tail, "ref", "p%g of the same, n=%d", w.tail*100, len(all))
	}
	info("reference unit", ms(ref), "ms", "median wall time beside the ops")
	if f.w.serve {
		sel, selTime := t.selects()
		info("select share", sel, "ratio", "of reads; %.3f of read time", selTime)
	}
	for _, q := range []float64{0.5, w.tail} {
		if v, err := percentile(all, q); err == nil {
			info(fmt.Sprintf("p%g wall", q*100), ms(v), "ms", "%s latency, n=%d", f.unit(), len(all))
		}
	}
	info("throughput", n/t.wall.Seconds(), "1/s", "%d ops in %.2fs, %d client(s)", len(all), t.wall.Seconds(), f.clients())
	info("cpu per op", ms(t.user+t.sys)/n, "ms", "process CPU; user %.4f, system %.4f", ms(t.user)/n, ms(t.sys)/n)
	for _, m := range endToEnd {
		if _, ok := res.Metrics[m.name]; !ok {
			panic("end-to-end metric not reported: " + m.name)
		}
	}
	return res, nil
}

// count adds a pass's operations to the result's attempted/failed tally
// and reports its first errors; a wrong answer is never filtered out.
func (r *result) count(t *tally) {
	r.Attempted += int64(len(t.samples))
	r.Failed += t.failures()
	r.Correct = r.Failed == 0
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
}

// set records a metric and prints it with its unit and basis.
func (r *result) set(name string, v float64, unit, basis string, args ...any) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	info(name, v, unit, basis, args...)
}

// info prints a figure with its unit and basis.
func info(name string, v float64, unit, basis string, args ...any) {
	fmt.Printf("%-34s %14.4f %-6s %s\n", name, v, unit, fmt.Sprintf(basis, args...))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fixture is a set-up workload: a running wfsd, its inputs, and the
// clients' operation streams.
type fixture struct {
	w         workload
	d         *wfsd
	body      []byte     // cold: the create-session request
	rng       *rand.Rand // cold: query draws
	streams   []*stream  // serving: one per client
	setup     *tally     // operations run during set-up
	setupWall time.Duration
	heap      float64 // MiB the warm session adds to the live heap
}

func (f *fixture) clients() int {
	if f.w.serve {
		return clients
	}
	return 1
}

func (f *fixture) unit() string {
	if f.w.serve {
		return "request"
	}
	return "create+first answer+delete"
}

// coldQuery returns the next cold query with its expected answer and
// exactness: a random win(nC_I) on cold-datalog, whose certificate makes
// it exact; flip(X) on cold-ontology, which climbs the ladder to its
// ceiling without stabilising and so is true but inexact.
func (f *fixture) coldQuery() (string, string, bool) {
	if f.w.name == "cold-ontology" {
		return "? flip(X).", "true", false
	}
	q, want := drawWinQuery(f.rng)
	return q, fmt.Sprint(want), true
}

// program is the workload's generated source text.
func (w workload) program(seed uint64) string {
	switch {
	case w.name == "cold-ontology":
		return ladderProgram(seed)
	case w.serve:
		return datalogProgram(serveComponents, seed)
	}
	return datalogProgram(coldComponents, seed)
}

// setup starts wfsd, creates the session, checks its first answer and
// warms up. Its times exclude the forced collections of the heap
// measurement and those that start each cold operation, as in measure.
// A non-nil clock times the handler (traced run only).
func setup(w workload, seed uint64, walDir string, clock *handlerClock) (*fixture, error) {
	start := time.Now()
	var gcWall time.Duration
	untimed := func(fn func()) {
		t := time.Now()
		fn()
		gcWall += time.Since(t)
	}
	heap := func() (mib float64) {
		untimed(func() { mib = heapMiB() })
		return mib
	}
	f := &fixture{w: w, setup: &tally{}}
	src := w.program(seed)
	dir := ""
	if w.wal {
		dir = walDir
	}
	d, err := startWFSD(dir, clock)
	if err != nil {
		return nil, err
	}
	f.d = d
	before := heap()
	if !w.serve {
		f.rng = rand.New(rand.NewPCG(seed, 0x636f6c64))
		f.body = mustJSON(map[string]string{"name": "cold", "program": src})
		for i := 0; i <= coldWarmups; i++ {
			q, want, exact := f.coldQuery()
			var loaded func()
			if i == 0 {
				loaded = func() { f.heap = heap() - before }
			} else {
				untimed(runtime.GC)
			}
			f.setup.add(d.coldOp(f.body, q, want, exact, loaded, false))
		}
	} else {
		if _, _, err := d.call("POST", "/v1/sessions", mustJSON(map[string]string{"name": "game", "program": src}), nil, false); err != nil {
			d.stop()
			return nil, err
		}
		for id := 0; id < clients; id++ {
			f.streams = append(f.streams, newStream(seed, id, serveComponents, w.mutate))
		}
		f.setup.add(d.read(f.streams[0].game, key{c: 0, i: 0}, false))
		f.heap = heap() - before
		// Reads only: the warm-up fills the answer cache and the warm
		// rungs without a run of fsyncs making set-up time a disk figure.
		for _, s := range f.streams {
			for i := 0; i < serveWarmups; i++ {
				f.setup.add(d.read(s.game, s.keys[s.zipf.next()], false))
			}
		}
	}
	f.setupWall = time.Since(start) - gcWall
	return f, nil
}

// do runs one serving operation.
func (f *fixture) do(s *stream, o op, timed bool) (sample, error) {
	if o.kind == opMutate {
		return f.d.mutate(s.game, o.k.c, timed)
	}
	return f.d.read(s.game, o.k, timed)
}

// measure runs the workload's operations for the given time and then,
// within maxMeasure, until enough(t) holds (nil: no condition): cold
// operations back to back from one client, serving operations from
// closed-loop clients. With alternate, every other operation of each
// client asks the handler clock to time it.
func (f *fixture) measure(seconds time.Duration, enough func(*tally) bool, alternate bool) *tally {
	t := &tally{}
	start := time.Now()
	user, sys := cpuSplit()
	defer func() {
		u, s := cpuSplit()
		t.user, t.sys = u-user, s-sys
	}()
	done := func() bool {
		el := time.Since(start)
		if el >= maxMeasure {
			return true
		}
		if el < seconds {
			return false
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		return enough == nil || enough(t)
	}
	if !f.w.serve {
		// Each cold operation is followed by a reference time.
		for i := 0; !done(); i++ {
			q, want, exact := f.coldQuery()
			s, err := f.d.coldOp(f.body, q, want, exact, nil, alternate && i%2 == 0)
			s.ref = fencedRef()
			t.add(s, err)
		}
		t.wall = time.Since(start)
		return t
	}
	// Every refEvery the clients pause while the reference unit runs
	// alone; each request is divided by the latest reference time.
	var gate sync.RWMutex
	var ref atomic.Int64
	ref.Store(int64(fencedRef()))
	stop := make(chan struct{})
	var refs sync.WaitGroup
	refs.Add(1)
	go func() {
		defer refs.Done()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				gate.Lock()
				ref.Store(int64(fencedRef()))
				gate.Unlock()
			}
		}
	}()
	var wg sync.WaitGroup
	for _, s := range f.streams {
		wg.Add(1)
		go func(s *stream) {
			defer wg.Done()
			for i := 0; !done(); i++ {
				gate.RLock()
				smp, err := f.do(s, s.next(), alternate && i%2 == 0)
				smp.ref = time.Duration(ref.Load())
				gate.RUnlock()
				t.add(smp, err)
			}
		}(s)
	}
	wg.Wait()
	close(stop)
	refs.Wait()
	t.wall = time.Since(start)
	return t
}

// tailSupported reports whether t has the samples the workload's tail
// percentile needs, and on serve-mixed those of a p99 of its mutations.
func (f *fixture) tailSupported(t *tally) bool {
	return float64(len(t.samples))*(1-f.w.tail) >= minBeyond &&
		(f.w.mutate == 0 || len(t.lat(opMutate)) >= minMutations)
}

// printMeta prints the run's metadata line ahead of the result.
func printMeta(w workload, seed uint64, traced bool) {
	meta := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"trace":      traced,
		"commit":     commit(),
		"source":     sourceDigest(),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
	}
	out, _ := json.Marshal(map[string]any{"meta": meta}) // plain values
	fmt.Println(string(out))
}

// commit is the checkout's git revision, "unknown" when the checkout is
// not the root of a git work tree.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest identifies the measured code without git: a SHA-256 over
// the paths and contents of the checkout's Go sources and go.mod files.
func sourceDigest() string {
	var files []string
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
