package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 needs 1000 samples and a p90 needs 100.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule. It refuses a percentile with fewer than minBeyond
// samples beyond it, because such a tail is one or two outliers.
func percentile[T cmp.Ordered](samples []T, q float64) (T, error) {
	n := len(samples)
	if n == 0 || float64(n)*(1-q) < minBeyond-1e-9 {
		var zero T
		return zero, fmt.Errorf("p%g needs %d samples, have %d", q*100, int(math.Ceil(minBeyond/(1-q)-1e-9)), n)
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], nil
}

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; 0 for no values.
func mean[T ~int64 | ~float64](xs []T) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// span is one timed interval of a trace tree, in nanoseconds from an
// arbitrary origin shared by the whole tree.
type span struct {
	name       string
	start, end int64
	counters   map[string]int64
	children   []*span
}

// selfTime is the span's duration minus the part of it that its
// children cover. Children may overlap one another (the parallel
// solver runs components concurrently), so the covered part is the
// length of the union of the children's intervals, clipped to the span.
func selfTime(s *span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(s.children))
	for _, c := range s.children {
		a, b := max(c.start, s.start), min(c.end, s.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if curB < curA || v.a > curB {
			if curB >= curA {
				covered += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB >= curA {
		covered += curB - curA
	}
	return (s.end - s.start) - covered
}

// walk visits s and its descendants depth-first.
func (s *span) walk(fn func(*span)) {
	fn(s)
	for _, c := range s.children {
		c.walk(fn)
	}
}
