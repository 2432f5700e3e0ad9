package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	wfs "repro"
	"repro/internal/bench"
)

func TestGeneratorsDeterministicInSeed(t *testing.T) {
	for _, w := range workloads {
		if w.program(7) != w.program(7) {
			t.Errorf("%s: program differs for the same seed", w.name)
		}
		if w.program(7) == w.program(8) {
			t.Errorf("%s: program ignores the seed", w.name)
		}
	}
	ops := func(seed uint64) []op {
		s := newStream(seed, 1, serveComponents, mutateShare)
		var out []op
		for i := 0; i < 500; i++ {
			out = append(out, s.next())
		}
		return out
	}
	if !reflect.DeepEqual(ops(3), ops(3)) {
		t.Error("operation stream differs for the same seed")
	}
	if reflect.DeepEqual(ops(3), ops(4)) {
		t.Error("operation stream ignores the seed")
	}
	q1, _ := drawWinQuery(rand.New(rand.NewPCG(5, 0)))
	q2, _ := drawWinQuery(rand.New(rand.NewPCG(5, 0)))
	if q1 != q2 {
		t.Errorf("cold query differs for the same seed: %s, %s", q1, q2)
	}
}

func TestStreamStaysInItsPartition(t *testing.T) {
	for id := 0; id < clients; id++ {
		s := newStream(1, id, serveComponents, mutateShare)
		for i := 0; i < 2000; i++ {
			if o := s.next(); o.k.c%clients != id {
				t.Fatalf("client %d drew component %d", id, o.k.c)
			}
		}
	}
}

// TestOracleAgreesWithEngine checks the closed-form answers against the
// engine on a small game, before and after toggling cut edges.
func TestOracleAgreesWithEngine(t *testing.T) {
	const k = 3
	sys, err := wfs.Load(bench.UpdateFamily(k, chainLen))
	if err != nil {
		t.Fatal(err)
	}
	g := newGame()
	check := func(stage string) {
		snap, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < k; c++ {
			for i := 0; i <= chainLen; i++ {
				q, err := wfs.Prepare(key{c: c, i: i}.text())
				if err != nil {
					t.Fatal(err)
				}
				ans, err := snap.Answer(q)
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprint(g.win(c, i)); ans.String() != want {
					t.Errorf("%s: win(%s) = %s, oracle %s", stage, node(c, i), ans, want)
				}
				sq, err := wfs.Prepare(key{c: c, i: i, sel: true}.text())
				if err != nil {
					t.Fatal(err)
				}
				_, tuples, err := snap.Select(sq)
				if err != nil {
					t.Fatal(err)
				}
				if want := g.selectAnswer(c, i); fmt.Sprint(tuples) != fmt.Sprint(want) {
					t.Errorf("%s: select at %s = %v, oracle %v", stage, node(c, i), tuples, want)
				}
			}
		}
	}
	toggle := func(c int) {
		d := wfs.NewDelta()
		if g.cut[c] {
			d.Add("move", node(c, cutNode), node(c, cutNode+1))
		} else {
			d.Retract("move", node(c, cutNode), node(c, cutNode+1))
		}
		if err := sys.Apply(d); err != nil {
			t.Fatal(err)
		}
		g.cut[c] = !g.cut[c]
	}
	check("initial")
	toggle(1)
	check("after cutting component 1")
	toggle(2)
	toggle(1)
	check("after restoring 1 and cutting 2")
}

// TestZipfianFollowsItsLaw checks the key sampler's rank frequencies
// against 1/(rank+1)^s over a serving client's 4000 keys.
func TestZipfianFollowsItsLaw(t *testing.T) {
	const n, draws = 4000, 400000
	z := newZipfian(rand.New(rand.NewPCG(1, 2)), zipfS, n)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.next()]++
	}
	h := 0.0
	for k := 1; k <= n; k++ {
		h += math.Pow(float64(k), -zipfS)
	}
	for _, rank := range []int{0, 1, 9} {
		want := draws * math.Pow(float64(rank+1), -zipfS) / h
		if got := float64(counts[rank]); math.Abs(got-want) > 0.05*want {
			t.Errorf("rank %d drawn %.0f times, law gives %.0f", rank, got, want)
		}
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n - i) // unsorted on purpose
		}
		return out
	}
	for _, tc := range []struct {
		q       float64
		refused int // largest refused sample count
	}{{0.5, 19}, {0.9, 99}, {0.99, 999}} {
		if _, err := percentile(samples(tc.refused), tc.q); err == nil {
			t.Errorf("p%g of %d samples accepted", tc.q*100, tc.refused)
		}
		v, err := percentile(samples(tc.refused+1), tc.q)
		if err != nil {
			t.Errorf("p%g of %d samples refused: %v", tc.q*100, tc.refused+1, err)
		}
		// 10 samples lie beyond the reported one.
		if want := time.Duration(tc.refused + 1 - 10); v != want {
			t.Errorf("p%g of %d samples = %d, want %d", tc.q*100, tc.refused+1, v, want)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	s := &span{start: 0, end: 100, children: []*span{
		{start: 30, end: 60},
		{start: 10, end: 40}, // overlaps the first
		{start: 35, end: 45}, // inside both
		{start: 70, end: 80},
		{start: 90, end: 120}, // runs past the parent
		{start: 130, end: 140},
	}}
	// Covered: [10,60] + [70,80] + [90,100] = 70.
	if got := selfTime(s); got != 30 {
		t.Errorf("selfTime = %d, want 30", got)
	}
	if got := selfTime(&span{start: 5, end: 9}); got != 4 {
		t.Errorf("leaf selfTime = %d, want 4", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workloads and metrics
// in step with what the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	same := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, program has %d", kind, len(got), len(defs))
			return
		}
		for i, m := range got {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s[%d] = %s %s, program has %s %s", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestServeMixedSmoke drives a short serve-mixed stream through the
// HTTP API and a traced Go-API pass, with every answer checked.
func TestServeMixedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server")
	}
	w := workloads[3]
	f, err := setup(w, 1, filepath.Join(t.TempDir(), "wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.d.stop()
	u := f.measure(300*time.Millisecond, nil, true)
	p, g, err := f.apiPass(300*time.Millisecond, w.program(1), filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tl := range []*tally{f.setup, u, g} {
		if n := tl.failures(); n > 0 {
			t.Errorf("%d failed operations: %v", n, tl.errs)
		}
	}
	if len(u.lat(opMutate)) == 0 || p.n[opMutate] == 0 || p.ckpts == 0 {
		t.Errorf("no mutations measured: http %d, api %d, checkpoints %d", len(u.lat(opMutate)), p.n[opMutate], p.ckpts)
	}
}
