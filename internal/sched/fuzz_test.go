package sched

import (
	"testing"
	"time"

	"cloudhpc/internal/sim"
	"cloudhpc/internal/trace"
)

// FuzzSubmitOrdering hardens the scheduling engine against arbitrary job
// submission sequences (mirroring internal/slurm's batch-script fuzz).
// Each fuzz input byte pair encodes one job's shape; whatever the
// ordering, the engine must conserve nodes, finish every accepted job,
// and keep per-job timestamps coherent — with backfill both on and off.
// Every input is replayed on a second fresh scheduler, which must finish
// the same jobs at the same times: the engine is deterministic.
func FuzzSubmitOrdering(f *testing.F) {
	f.Add([]byte{4, 10, 2, 5, 8, 1}, uint8(16), true)
	f.Add([]byte{1, 1, 1, 1}, uint8(4), false)
	f.Add([]byte{16, 60, 16, 60, 1, 1}, uint8(16), true)
	f.Add([]byte{255, 255, 0, 0}, uint8(32), true)
	f.Add([]byte{}, uint8(8), false)
	f.Add([]byte{7}, uint8(8), true)
	// TestBackfillSimultaneousFinishesAreDeterministic's jobs: two running
	// jobs finish at the same instant while a candidate waits to backfill.
	f.Add([]byte{9, 60, 49, 60, 59, 60, 34, 120}, uint8(100), true)
	f.Fuzz(func(t *testing.T, raw []byte, totalNodes uint8, backfill bool) {
		nodes := int(totalNodes)
		if nodes <= 0 {
			nodes = 1
		}
		if len(raw) > 64 {
			raw = raw[:64] // keep the event queue bounded
		}
		replay := func() (*Scheduler, int) {
			s := sim.New(7)
			sc := New(s, trace.NewLog(), Config{
				Kind: Flux, Env: "fuzz", TotalNodes: nodes, Backfill: backfill,
			})
			submitted := 0
			for i := 0; i+1 < len(raw); i += 2 {
				j := &Job{
					Name:     "fuzz",
					Nodes:    int(raw[i]%uint8(min(nodes, 255))) + 1,
					Duration: time.Duration(raw[i+1]) * time.Minute,
				}
				if err := sc.Submit(j); err != nil {
					continue // oversized asks are rejected up front; fine
				}
				submitted++
			}
			s.Run()
			return sc, submitted
		}
		sc, submitted := replay()

		if sc.FreeNodes() != nodes {
			t.Fatalf("node leak: %d free of %d after drain", sc.FreeNodes(), nodes)
		}
		if sc.QueueLen() != 0 {
			t.Fatalf("%d jobs stuck in queue after drain", sc.QueueLen())
		}
		done := sc.Done()
		if len(done) != submitted {
			t.Fatalf("finished %d jobs, submitted %d", len(done), submitted)
		}
		for _, j := range done {
			if j.State != Completed {
				t.Fatalf("job %d finished in state %v", j.ID, j.State)
			}
			if j.StartedAt < j.SubmittedAt {
				t.Fatalf("job %d started %v before submission %v", j.ID, j.StartedAt, j.SubmittedAt)
			}
			if j.FinishedAt < j.StartedAt {
				t.Fatalf("job %d finished %v before start %v", j.ID, j.FinishedAt, j.StartedAt)
			}
			if j.FinishedAt-j.StartedAt != j.WrapperTime() {
				t.Fatalf("job %d ran %v, wrapper time %v", j.ID, j.FinishedAt-j.StartedAt, j.WrapperTime())
			}
		}

		again, _ := replay()
		redone := again.Done()
		if len(redone) != len(done) {
			t.Fatalf("replay finished %d jobs, first run %d", len(redone), len(done))
		}
		for i, j := range done {
			r := redone[i]
			if r.ID != j.ID || r.StartedAt != j.StartedAt || r.FinishedAt != j.FinishedAt {
				t.Fatalf("replay diverged at finish %d: job %d ran %v–%v, first run job %d ran %v–%v",
					i, r.ID, r.StartedAt, r.FinishedAt, j.ID, j.StartedAt, j.FinishedAt)
			}
		}
	})
}
