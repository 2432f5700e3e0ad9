// Package trace is the zero-dependency tracing substrate of the
// evaluation pipeline: span-style phase timings and monotonic counters,
// recorded into a structured phase tree (EvalTrace) that the server
// returns on ?trace=1, the slow-query log renders compactly, and the
// REPL/CLI print after each query.
//
// The design center is the disabled cost. Tracing is threaded through
// the engine as a *Span; a nil *Span is the no-op tracer — every method
// has a nil-receiver fast path, so an untraced evaluation pays exactly
// one nil check per hook and allocates nothing. The hot per-component
// and per-depth instrumentation is additionally gated behind Detailed(),
// so even a recording span only pays for fine-grained work when the
// caller asked for a full phase tree (an explicitly traced query) rather
// than coarse totals (the always-on engine metrics accumulation).
//
// Spans form a tree. Child starts a sub-span; End stops it. A span may
// have children started from multiple goroutines: the child list is
// mutex-guarded, and counters use the same lock. Phase provides the closure-style hook (start, return the
// stop function) for linear sequences.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer is the minimal hook surface the engine layers see: begin a
// phase (ending it via the returned function) and bump a monotonic
// counter on the current phase. *Span implements it; (*Span)(nil) is the
// no-op implementation — prefer passing a nil *Span over a nil Tracer
// interface, which would panic on use.
type Tracer interface {
	// Phase starts a named phase and returns the function that ends it.
	Phase(name string) func()
	// Count adds delta to the named counter.
	Count(name string, delta int64)
}

// Span is one node of a recorded phase tree. The zero value is not
// useful; obtain roots from New/NewDetailed and children from Child. A
// nil *Span is the disabled tracer: all methods are safe and free.
type Span struct {
	name   string
	start  time.Time
	detail bool

	mu       sync.Mutex
	end      time.Time // zero while running
	children []*Span
	counters map[string]int64
}

var _ Tracer = (*Span)(nil)

// New starts a recording root span. Fine-grained instrumentation
// (per-SCC timings, per-depth chase profiles) stays off; use NewDetailed
// for a full phase tree.
func New(name string) *Span { return &Span{name: name, start: time.Now()} }

// NewDetailed starts a recording root span with fine-grained
// instrumentation enabled (see Detailed).
func NewDetailed(name string) *Span {
	return &Span{name: name, start: time.Now(), detail: true}
}

// Enabled reports whether the span records anything; it is the single
// nil check the disabled hot path pays.
func (s *Span) Enabled() bool { return s != nil }

// Detailed reports whether fine-grained (per-component, per-depth)
// instrumentation should run. Detail is inherited by children.
func (s *Span) Detailed() bool { return s != nil && s.detail }

// Child starts a sub-span. Returns nil when s is nil, so call chains
// stay free when tracing is disabled.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), detail: s.detail}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildDetailed starts a sub-span with fine-grained instrumentation
// enabled for its subtree regardless of the parent's detail level. The
// server's ?trace=1 path hangs a detailed evaluation under the coarse
// per-request root span.
func (s *Span) ChildDetailed(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now(), detail: true}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stops the span. Ending twice keeps the first end time; ending a
// nil span is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

var nop = func() {}

// Phase is the Tracer-interface hook: Child + End as a closure, for
// linear phase sequences that never nest further.
func (s *Span) Phase(name string) func() {
	if s == nil {
		return nop
	}
	c := s.Child(name)
	return c.End
}

// Count adds delta to the named counter of this span.
func (s *Span) Count(name string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[name] += delta
	s.mu.Unlock()
}

// SetCount sets the named counter to v (for gauged values like sizes,
// where the last observation wins).
func (s *Span) SetCount(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[name] = v
	s.mu.Unlock()
}

// MarkCancelled annotates the span as having been cut short by
// cooperative cancellation (query deadline, client disconnect, manual
// cancel). The flight recorder and /v1/traces surface the counter so a
// truncated span tree is distinguishable from a cheap one.
func (s *Span) MarkCancelled() {
	s.SetCount("cancelled", 1)
}

// AttachTimed records an already-measured child phase (start inferred
// from the given duration ending now is not meaningful, so the child
// carries only the duration). Used by instrumentation that measures with
// bare time.Since in a hot loop and attaches only the survivors (top-k
// slowest components).
func (s *Span) AttachTimed(name string, d time.Duration, counters map[string]int64) {
	if s == nil {
		return
	}
	now := time.Now()
	c := &Span{name: name, start: now.Add(-d), end: now, detail: s.detail, counters: counters}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// Duration returns the span's wall time so far (final once ended); zero
// on a nil span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	end := s.end
	s.mu.Unlock()
	if end.IsZero() {
		return time.Since(s.start)
	}
	return end.Sub(s.start)
}

// EvalTrace is the serializable phase tree of one evaluation: phase
// name, offset from the root start, wall time, counters, children. All
// times are microseconds, which is the natural resolution for query
// phases that range from sub-millisecond cache hits to multi-second cold
// builds.
type EvalTrace struct {
	Name     string           `json:"name"`
	StartUS  int64            `json:"start_us"`
	DurUS    int64            `json:"dur_us"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*EvalTrace     `json:"children,omitempty"`
}

// Trace ends the span (if still running) and snapshots it into an
// EvalTrace; nil on a nil span.
func (s *Span) Trace() *EvalTrace {
	if s == nil {
		return nil
	}
	s.End()
	return s.trace(s.start)
}

func (s *Span) trace(origin time.Time) *EvalTrace {
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = time.Now()
	}
	t := &EvalTrace{
		Name:    s.name,
		StartUS: s.start.Sub(origin).Microseconds(),
		DurUS:   end.Sub(s.start).Microseconds(),
	}
	if len(s.counters) > 0 {
		t.Counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			t.Counters[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		t.Children = append(t.Children, c.trace(origin))
	}
	return t
}

// Name returns the span's phase name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Counter returns the named counter's value (0 when absent or nil).
func (s *Span) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Walk visits the span and every descendant depth-first. Used by the
// engine-metrics accumulator to fold a finished build tree into
// cumulative per-phase counters.
func (s *Span) Walk(fn func(s *Span)) {
	if s == nil {
		return
	}
	fn(s)
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		c.Walk(fn)
	}
}

// Format renders the tree as an indented, human-readable listing:
//
//	query                        4.21ms
//	  ladder                     4.10ms
//	    depth-4                  2.96ms  atoms=5121 instances=9804
//
// for the REPL's :trace output and wfsquery -trace.
func (t *EvalTrace) Format() string {
	var b strings.Builder
	t.format(&b, 0)
	return b.String()
}

func (t *EvalTrace) format(b *strings.Builder, depth int) {
	if t == nil {
		return
	}
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%-36s %9s", indent+t.Name, fmtDur(t.DurUS))
	if len(t.Counters) > 0 {
		keys := make([]string, 0, len(t.Counters))
		for k := range t.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, "  %s=%d", k, t.Counters[k])
		}
	}
	b.WriteByte('\n')
	for _, c := range t.Children {
		c.format(b, depth+1)
	}
}

// Compact renders the tree on one line — name=dur with children in
// brackets — for structured slow-query log lines:
//
//	query=4.2ms[ladder=4.1ms[depth-4=3.0ms depth-6=1.1ms]]
func (t *EvalTrace) Compact() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	t.compact(&b)
	return b.String()
}

func (t *EvalTrace) compact(b *strings.Builder) {
	b.WriteString(t.Name)
	b.WriteByte('=')
	b.WriteString(fmtDur(t.DurUS))
	if len(t.Children) > 0 {
		b.WriteByte('[')
		for i, c := range t.Children {
			if i > 0 {
				b.WriteByte(' ')
			}
			c.compact(b)
		}
		b.WriteByte(']')
	}
}

// fmtDur renders microseconds with adaptive units.
func fmtDur(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

// SumChildrenUS returns the summed durations of the direct children —
// the quantity the spans-sum-to-wall-time acceptance check compares
// against DurUS.
func (t *EvalTrace) SumChildrenUS() int64 {
	var sum int64
	for _, c := range t.Children {
		sum += c.DurUS
	}
	return sum
}

// Find returns the first node (depth-first, preorder) with the given
// name, or nil.
func (t *EvalTrace) Find(name string) *EvalTrace {
	if t == nil {
		return nil
	}
	if t.Name == name {
		return t
	}
	for _, c := range t.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}
