package wal

import (
	"fmt"
	"testing"

	wfs "repro"
	"repro/internal/trace"
)

// benchSystem loads a small win-move program and returns it plus a
// fresh-fact mutation step: each call applies a single-add delta, the
// shape of a typical wfsd mutation request.
func benchSystem(b *testing.B) (*wfs.System, func(i int) error) {
	b.Helper()
	sys, err := wfs.Load(winMove)
	if err != nil {
		b.Fatal(err)
	}
	return sys, func(i int) error {
		return sys.Apply(wfs.NewDelta().Add("move", "c", fmt.Sprintf("x%d", i)))
	}
}

// BenchmarkWALAppend prices the durability tax on the mutation path:
//
//   - nohook: System.Apply with no WAL attached — the in-memory baseline.
//   - nofsync: every mutation serialized + CRC-framed + written to the
//     live segment before commit, fsync off (crash-safe, not
//     power-loss-safe). The acceptance bar is ≤10% overhead over the full
//     mutation path of BenchmarkDeltaApply; this bench isolates the raw
//     append cost so the overhead claim is auditable.
//   - fsync: the same plus an fsync per mutation — the durable-by-default
//     server configuration, dominated by device sync latency.
func BenchmarkWALAppend(b *testing.B) {
	b.Run("nohook", func(b *testing.B) {
		_, step := benchSystem(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := step(i); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, cfg := range []struct {
		name  string
		fsync bool
	}{{"nofsync", false}, {"fsync", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			man, err := Open(b.TempDir(), Options{
				Fsync:             cfg.fsync,
				CheckpointRecords: -1,
				CheckpointBytes:   -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer man.Close()
			sys, step := benchSystem(b)
			facts, epoch := sys.DumpState()
			l, err := man.Create("bench", Checkpoint{Source: winMove, Epoch: epoch, Facts: facts})
			if err != nil {
				b.Fatal(err)
			}
			sys.SetCommitHook(func(e uint64, adds, retracts []wfs.FactRef, _ *trace.Span) error {
				return l.Append(e, adds, retracts, nil)
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := step(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery prices a restart: load the checkpoint, replay a
// 1000-record delta tail, and reopen the log for appending. This bounds
// the downtime a crash adds when a session has accumulated a full
// default checkpoint interval of un-checkpointed log.
func BenchmarkRecovery(b *testing.B) {
	const tail = 1000
	dir := b.TempDir()
	man, sys, _ := func() (*Manager, *wfs.System, *SessionLog) {
		man, err := Open(dir, Options{CheckpointRecords: -1, CheckpointBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		sys, err := wfs.Load(winMove)
		if err != nil {
			b.Fatal(err)
		}
		facts, epoch := sys.DumpState()
		l, err := man.Create("bench", Checkpoint{Source: winMove, Epoch: epoch, Facts: facts})
		if err != nil {
			b.Fatal(err)
		}
		sys.SetCommitHook(func(e uint64, adds, retracts []wfs.FactRef, _ *trace.Span) error {
			return l.Append(e, adds, retracts, nil)
		})
		return man, sys, l
	}()
	for i := 0; i < tail; i++ {
		if err := sys.Apply(wfs.NewDelta().Add("move", "c", fmt.Sprintf("x%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	if err := man.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		recs, skipped, err := m.Recover(nil)
		if err != nil || len(skipped) != 0 || len(recs) != 1 || recs[0].Replayed != tail {
			b.Fatalf("recover: recs=%d skipped=%d replayed=%v err=%v", len(recs), len(skipped), recs, err)
		}
		m.Close()
	}
}
