package trace

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	if s.Enabled() {
		t.Fatal("nil span reports enabled")
	}
	if s.Detailed() {
		t.Fatal("nil span reports detailed")
	}
	if c := s.Child("x"); c != nil {
		t.Fatal("nil span returned non-nil child")
	}
	s.End()
	s.Count("n", 1)
	s.SetCount("n", 2)
	s.AttachTimed("x", time.Millisecond, nil)
	s.Phase("p")() // returned closure must also be callable
	if d := s.Duration(); d != 0 {
		t.Fatalf("nil span duration = %v", d)
	}
	if tr := s.Trace(); tr != nil {
		t.Fatal("nil span produced a trace")
	}
	if s.Name() != "" || s.Counter("n") != 0 {
		t.Fatal("nil span has a name or counters")
	}
	s.Walk(func(*Span) { t.Fatal("nil span walked") })
}

func TestTreeShape(t *testing.T) {
	root := New("query")
	a := root.Child("chase")
	a.Count("instances", 10)
	a.Count("instances", 5)
	a.End()
	b := root.Child("solve")
	b.SetCount("sccs", 7)
	b.Child("condense").End()
	b.End()
	tr := root.Trace()

	if tr.Name != "query" || len(tr.Children) != 2 {
		t.Fatalf("unexpected root: %+v", tr)
	}
	if tr.Children[0].Name != "chase" || tr.Children[0].Counters["instances"] != 15 {
		t.Fatalf("unexpected chase child: %+v", tr.Children[0])
	}
	solve := tr.Find("solve")
	if solve == nil || solve.Counters["sccs"] != 7 {
		t.Fatalf("Find(solve) = %+v", solve)
	}
	if tr.Find("condense") == nil {
		t.Fatal("Find missed grandchild")
	}
	if tr.Find("missing") != nil {
		t.Fatal("Find invented a node")
	}
	// Trace is JSON-serializable with the expected keys.
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"name"`, `"dur_us"`, `"start_us"`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("marshaled trace missing %s: %s", key, raw)
		}
	}
}

func TestChildrenSumWithinWallTime(t *testing.T) {
	root := New("query")
	c1 := root.Child("p1")
	time.Sleep(2 * time.Millisecond)
	c1.End()
	c2 := root.Child("p2")
	time.Sleep(2 * time.Millisecond)
	c2.End()
	tr := root.Trace()
	if sum := tr.SumChildrenUS(); sum > tr.DurUS {
		t.Fatalf("children sum %dus exceeds root %dus", sum, tr.DurUS)
	}
	if tr.DurUS < 4000 {
		t.Fatalf("root duration %dus shorter than slept time", tr.DurUS)
	}
}

func TestDetailInheritance(t *testing.T) {
	if !NewDetailed("r").Child("c").Detailed() {
		t.Fatal("detail not inherited")
	}
	if New("r").Child("c").Detailed() {
		t.Fatal("detail appeared from nowhere")
	}
}

func TestEndIsIdempotent(t *testing.T) {
	s := New("x")
	s.End()
	d := s.Duration()
	time.Sleep(2 * time.Millisecond)
	s.End()
	if got := s.Duration(); got != d {
		t.Fatalf("second End moved duration: %v -> %v", d, got)
	}
}

func TestAttachTimed(t *testing.T) {
	root := New("solve")
	root.AttachTimed("scc-42", 3*time.Millisecond, map[string]int64{"atoms": 9})
	tr := root.Trace()
	n := tr.Find("scc-42")
	if n == nil || n.Counters["atoms"] != 9 {
		t.Fatalf("attached span missing or wrong: %+v", n)
	}
	if n.DurUS < 2900 || n.DurUS > 3500 {
		t.Fatalf("attached duration %dus, want ~3000", n.DurUS)
	}
}

func TestRenderers(t *testing.T) {
	root := New("query")
	c := root.Child("ladder")
	c.Count("atoms", 3)
	c.Child("depth-4").End()
	c.End()
	tr := root.Trace()

	f := tr.Format()
	for _, want := range []string{"query", "ladder", "depth-4", "atoms=3"} {
		if !strings.Contains(f, want) {
			t.Fatalf("Format missing %q:\n%s", want, f)
		}
	}
	if !strings.Contains(f, "  ladder") {
		t.Fatalf("Format not indented:\n%s", f)
	}

	cpt := tr.Compact()
	if !strings.Contains(cpt, "query=") || !strings.Contains(cpt, "[ladder=") {
		t.Fatalf("Compact shape wrong: %s", cpt)
	}
	if strings.Contains(cpt, "\n") {
		t.Fatalf("Compact not one line: %q", cpt)
	}
}

func TestFmtDurUnits(t *testing.T) {
	cases := map[int64]string{
		5:         "5µs",
		1_500:     "1.50ms",
		2_340_000: "2.34s",
	}
	for us, want := range cases {
		if got := fmtDur(us); got != want {
			t.Fatalf("fmtDur(%d) = %q, want %q", us, got, want)
		}
	}
}

// TestConcurrentUse exercises a span tree from many goroutines; run
// under -race it proves the recorder is safe for concurrent children and
// counters.
func TestConcurrentUse(t *testing.T) {
	root := New("solve")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := root.Child("comp")
				c.Count("atoms", 1)
				root.Count("total", 1)
				c.End()
			}
		}()
	}
	wg.Wait()
	tr := root.Trace()
	if len(tr.Children) != 800 {
		t.Fatalf("lost children: %d", len(tr.Children))
	}
	if tr.Counters["total"] != 800 {
		t.Fatalf("lost counts: %d", tr.Counters["total"])
	}
}

func TestWalk(t *testing.T) {
	root := New("a")
	root.Child("b").End()
	root.Child("b").End()
	root.End()
	got := map[string]int{}
	root.Walk(func(s *Span) { got[s.Name()]++ })
	if got["a"] != 1 || got["b"] != 2 {
		t.Fatalf("walk visited %v", got)
	}
}
