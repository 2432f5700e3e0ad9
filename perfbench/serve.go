package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

// checkpointRecords is serve-mixed's checkpoint policy: a checkpoint
// after every 256 logged mutations, so a run writes several of them.
const checkpointRecords = 256

// wfsd is an in-process wfsd on a loopback listener, driven only
// through its HTTP API.
type wfsd struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
	dir    string
}

// startWFSD starts a server with the default configuration. A non-empty
// dataDir enables the write-ahead log with fsync on every mutation; a
// non-nil clock times the handler (traced run only).
func startWFSD(dataDir string, clock *handlerClock) (*wfsd, error) {
	srv := server.New(server.Config{})
	if dataDir != "" {
		if _, err := srv.OpenWAL(dataDir, wal.Options{Fsync: true, CheckpointRecords: checkpointRecords}); err != nil {
			return nil, fmt.Errorf("open WAL: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv.Handler()
	if clock != nil {
		h = clock.wrap(h)
	}
	d := &wfsd{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		dir:    dataDir,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the listener, writes the final checkpoints, waits for the
// serving goroutine and removes the data directory.
func (d *wfsd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	if d.dir != "" {
		if rerr := os.RemoveAll(d.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// clockHeader asks the traced run's handler clock to time a request.
const clockHeader = "X-Bench-Clock"

// call sends one request and decodes a 2xx JSON reply into out. It
// returns the round-trip time, measured from sending the request to
// reading the last byte of the reply, and the server's trace ID. A
// timed request asks the handler clock, if any, to time it.
func (d *wfsd) call(method, path string, body []byte, out any, timed bool) (time.Duration, string, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	if timed {
		req.Header.Set(clockHeader, "1")
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	data, err := io.ReadAll(resp.Body)
	rtt := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return rtt, "", err
	}
	id := resp.Header.Get("X-Trace-Id")
	if resp.StatusCode/100 != 2 {
		return rtt, id, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return rtt, id, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return rtt, id, nil
}

func (d *wfsd) get(path string, out any) error {
	_, _, err := d.call(http.MethodGet, path, nil, out, false)
	return err
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and strings are encoded
	}
	return b
}

// sample is one completed operation: its class, its latency, whether
// it failed (error status or wrong answer), whether the handler clock
// timed it, and the trace ID and round-trip time of each request.
type sample struct {
	kind   opKind
	lat    time.Duration
	ref    time.Duration // the reference unit's time beside the operation
	failed bool
	timed  bool
	sel    bool // a /select read
	ids    []string
	rtts   []time.Duration
}

func (s *sample) request(rtt time.Duration, id string) {
	s.lat += rtt
	s.ids = append(s.ids, id)
	s.rtts = append(s.rtts, rtt)
}

// tally collects the samples of one pass.
type tally struct {
	mu      sync.Mutex
	samples []sample
	errs    []string
	wall    time.Duration
	user    time.Duration // process CPU time
	sys     time.Duration
}

func (t *tally) add(s sample, err error) {
	t.mu.Lock()
	t.samples = append(t.samples, s)
	if err != nil && len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
}

func (t *tally) failures() int64 {
	var n int64
	for _, s := range t.samples {
		if s.failed {
			n++
		}
	}
	return n
}

// lat returns the latencies of the given classes (all when none given).
func (t *tally) lat(kinds ...opKind) []time.Duration {
	var out []time.Duration
	for _, s := range t.samples {
		if len(kinds) == 0 || slices.Contains(kinds, s.kind) {
			out = append(out, s.lat)
		}
	}
	return out
}

// rel returns the latencies of all operations in reference units.
func (t *tally) rel() []float64 {
	out := make([]float64, 0, len(t.samples))
	for _, s := range t.samples {
		out = append(out, float64(s.lat)/float64(s.ref))
	}
	return out
}

// selects returns the share of reads that are /select requests and
// their share of the reads' summed latency.
func (t *tally) selects() (share, timeShare float64) {
	var n, sel int
	var all, selLat time.Duration
	for _, s := range t.samples {
		if s.kind != opRead {
			continue
		}
		n++
		all += s.lat
		if s.sel {
			sel++
			selLat += s.lat
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sel) / float64(n), float64(selLat) / float64(all)
}

// refs returns the reference times the operations were divided by.
func (t *tally) refs() []time.Duration {
	out := make([]time.Duration, 0, len(t.samples))
	for _, s := range t.samples {
		out = append(out, s.ref)
	}
	return out
}

// coldOp creates a session from body, answers its first query, checks
// the answer, and deletes the session: the whole cold path a user pays.
// A non-nil loaded runs while the session is loaded and answered.
func (d *wfsd) coldOp(body []byte, query string, want string, wantExact bool, loaded func(), timed bool) (sample, error) {
	s := sample{kind: opCold, timed: timed}
	fail := func(err error) (sample, error) {
		s.failed = true
		return s, err
	}
	rtt, id, err := d.call(http.MethodPost, "/v1/sessions", body, nil, timed)
	s.request(rtt, id)
	if err != nil {
		return fail(err)
	}
	var qr server.QueryResponse
	rtt, id, err = d.call(http.MethodPost, "/v1/sessions/cold/query", mustJSON(server.QueryRequest{Query: query}), &qr, timed)
	s.request(rtt, id)
	var bad error
	if err != nil {
		bad = err
	} else if qr.Answer != want || qr.Stats == nil || qr.Stats.Exact != wantExact {
		bad = fmt.Errorf("%s = %s (exact %v), want %s (exact %v)", query, qr.Answer, qr.Stats != nil && qr.Stats.Exact, want, wantExact)
	}
	if loaded != nil {
		loaded()
	}
	rtt, id, err = d.call(http.MethodDelete, "/v1/sessions/cold", nil, nil, timed)
	s.request(rtt, id)
	if bad == nil {
		bad = err
	}
	if bad != nil {
		return fail(bad)
	}
	return s, nil
}

// read sends one /query or /select and checks it against the oracle.
func (d *wfsd) read(g *game, k key, timed bool) (sample, error) {
	s := sample{kind: opRead, timed: timed, sel: k.sel}
	body := mustJSON(server.QueryRequest{Query: k.text()})
	var err error
	var rtt time.Duration
	var id string
	if k.sel {
		var sr server.SelectResponse
		rtt, id, err = d.call(http.MethodPost, "/v1/sessions/game/select", body, &sr, timed)
		if want := g.selectAnswer(k.c, k.i); err == nil && !reflect.DeepEqual(sr.Tuples, want) {
			err = fmt.Errorf("%s = %v, want %v", k.text(), sr.Tuples, want)
		}
	} else {
		var qr server.QueryResponse
		rtt, id, err = d.call(http.MethodPost, "/v1/sessions/game/query", body, &qr, timed)
		if want := fmt.Sprint(g.win(k.c, k.i)); err == nil && qr.Answer != want {
			err = fmt.Errorf("%s = %s, want %s", k.text(), qr.Answer, want)
		}
	}
	s.request(rtt, id)
	s.failed = err != nil
	return s, err
}

// mutate toggles component c's cut edge through /retract or /facts and
// updates the oracle once the server acknowledges the write.
func (d *wfsd) mutate(g *game, c int, timed bool) (sample, error) {
	s := sample{kind: opMutate, timed: timed}
	body := mustJSON(server.AddFactsRequest{Facts: []server.Fact{{Pred: "move", Args: []string{node(c, cutNode), node(c, cutNode+1)}}}})
	var err error
	var rtt time.Duration
	var id string
	if g.cut[c] {
		var ar server.AddFactsResponse
		rtt, id, err = d.call(http.MethodPost, "/v1/sessions/game/facts", body, &ar, timed)
		if err == nil && ar.Added != 1 {
			err = fmt.Errorf("facts: added %d, want 1", ar.Added)
		}
	} else {
		var rr server.RetractResponse
		rtt, id, err = d.call(http.MethodPost, "/v1/sessions/game/retract", body, &rr, timed)
		if err == nil && rr.Retracted != 1 {
			err = fmt.Errorf("retract: retracted %d, want 1", rr.Retracted)
		}
	}
	if err == nil {
		g.cut[c] = !g.cut[c]
	}
	s.request(rtt, id)
	s.failed = err != nil
	return s, err
}

// cpuSplit is the process's user and system CPU time so far.
func cpuSplit() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// heapMiB is the live heap after a forced collection.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
