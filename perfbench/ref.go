package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// The reference unit is a fixed computation of the benchmark's own, of
// the kinds the program does — interning strings in a map, sorting,
// a JSON round trip — timed beside the operations it normalises. On a
// shared host the speed of the same code drifts by tens of per cent
// over minutes, for the reference unit as for the program, so an
// operation's latency divided by the reference time measured next to
// it drifts far less than either. The unit must never change: a change
// to it changes every normalised metric.
const refKeys = 1 << 14

var refSink int

func refUnit() int {
	m := make(map[string]int, refKeys)
	keys := make([]string, 0, refKeys)
	for i := 0; i < refKeys; i++ {
		k := fmt.Sprintf("n%d_%d", i%400, i)
		m[k] = i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sum := 0
	for _, k := range keys {
		sum += m[k]
	}
	b, err := json.Marshal(keys[:refKeys/4])
	if err != nil {
		panic(err) // a slice of strings always encodes
	}
	var out []string
	if err := json.Unmarshal(b, &out); err != nil {
		panic(err)
	}
	return sum + len(out)
}

// timeRef runs the reference unit once and returns its wall time.
func timeRef() time.Duration {
	start := time.Now()
	refSink += refUnit()
	return time.Since(start)
}

// fencedRef is the reference time beside an operation. A forced
// collection first, outside the timing, leaves no garbage of the
// operations before it to sweep, and the collector is off while the
// unit runs, so no cycle paced by the program's live heap lands in it;
// a second forced collection after it starts the next operation from a
// collected heap. The faster of two runs keeps background work of the
// program that overlaps one of them (a checkpoint on serve-mixed) out
// of it. So the reference time follows the host, not the program.
func fencedRef() time.Duration {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	d := min(timeRef(), timeRef())
	debug.SetGCPercent(old)
	runtime.GC()
	return d
}

// refNominal is the reference time setup_s is scaled to: set-up time is
// reported in seconds of a host on which the median reference time of
// the run is this long, so it follows the program and not the host's
// speed of the moment. A single reference time is too short to scale a
// set-up by: it samples a few milliseconds of the host, the set-up a
// few hundred.
const refNominal = 10 * time.Millisecond
