package sched

import (
	"errors"
	"testing"
	"time"

	"cloudhpc/internal/sim"
	"cloudhpc/internal/trace"
)

func newSched(seed uint64, cfg Config) (*sim.Simulation, *trace.Log, *Scheduler) {
	s := sim.New(seed)
	log := trace.NewLog()
	return s, log, New(s, log, cfg)
}

func TestSubmitAndComplete(t *testing.T) {
	t.Parallel()
	s, _, sc := newSched(1, Config{Kind: Flux, Env: "e", TotalNodes: 64})
	var finished *Job
	j := &Job{Name: "lammps", Nodes: 32, Duration: 10 * time.Minute, Hookup: 10 * time.Second,
		OnFinish: func(j *Job) { finished = j }}
	if err := sc.Submit(j); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s.Run()
	if finished == nil || finished.State != Completed {
		t.Fatalf("job did not complete: %+v", finished)
	}
	if got := finished.FinishedAt - finished.StartedAt; got != 10*time.Minute+10*time.Second {
		t.Fatalf("run time = %v, want wrapper time", got)
	}
	if sc.FreeNodes() != 64 {
		t.Fatalf("nodes not freed: %d", sc.FreeNodes())
	}
}

func TestWrapperTimeIsHookupPlusDuration(t *testing.T) {
	t.Parallel()
	j := &Job{Duration: 5 * time.Minute, Hookup: 30 * time.Second}
	if j.WrapperTime() != 5*time.Minute+30*time.Second {
		t.Fatalf("WrapperTime = %v", j.WrapperTime())
	}
}

func TestFIFOOrdering(t *testing.T) {
	t.Parallel()
	s, _, sc := newSched(1, Config{Kind: Slurm, Env: "e", TotalNodes: 32})
	var order []string
	mk := func(name string) *Job {
		return &Job{Name: name, Nodes: 32, Duration: time.Minute,
			OnFinish: func(j *Job) { order = append(order, j.Name) }}
	}
	for _, n := range []string{"a", "b", "c"} {
		if err := sc.Submit(mk(n)); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("FIFO violated: %v", order)
	}
}

func TestConcurrentJobsSharePool(t *testing.T) {
	t.Parallel()
	s, _, sc := newSched(1, Config{Kind: Flux, Env: "e", TotalNodes: 64})
	var finishes []time.Duration
	mk := func() *Job {
		return &Job{Name: "half", Nodes: 32, Duration: time.Hour,
			OnFinish: func(j *Job) { finishes = append(finishes, j.FinishedAt) }}
	}
	sc.Submit(mk())
	sc.Submit(mk())
	s.Run()
	// Both fit simultaneously → both finish at 1h, not 2h.
	for _, f := range finishes {
		if f != time.Hour {
			t.Fatalf("parallel jobs should finish together at 1h: %v", finishes)
		}
	}
}

func TestOversizedJobRejected(t *testing.T) {
	t.Parallel()
	_, _, sc := newSched(1, Config{Kind: Flux, Env: "e", TotalNodes: 16})
	err := sc.Submit(&Job{Name: "big", Nodes: 32, Duration: time.Minute})
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}
	if err := sc.Submit(&Job{Name: "zero", Nodes: 0}); err == nil {
		t.Fatalf("zero-node job must be rejected")
	}
}

func TestOnPremQueueWait(t *testing.T) {
	t.Parallel()
	s, _, sc := newSched(1, Config{Kind: Slurm, Env: "onprem", TotalNodes: 256,
		MeanQueueWait: 20 * time.Minute})
	j := &Job{Name: "amg", Nodes: 64, Duration: time.Minute}
	sc.Submit(j)
	s.Run()
	if j.QueueWait() < time.Minute {
		t.Fatalf("on-prem jobs should wait in the queue, waited %v", j.QueueWait())
	}
}

func TestCycleCloudStallsAreKickedAndLogged(t *testing.T) {
	t.Parallel()
	s := sim.New(3)
	log := trace.NewLog()
	sc := NewCycleCloudSlurm(s, log, "azure-cc-cpu", 256)
	done := 0
	for i := 0; i < 40; i++ {
		sc.Submit(&Job{Name: "k", Nodes: 256, Duration: time.Minute,
			OnFinish: func(j *Job) { done++ }})
	}
	s.Run()
	if done != 40 {
		t.Fatalf("all jobs must eventually finish, got %d", done)
	}
	stalls := log.Filter(func(e trace.Event) bool {
		return e.Category == trace.Manual && e.Severity == trace.Unexpected
	})
	if len(stalls) == 0 {
		t.Fatalf("CycleCloud must produce manual-intervention stall events")
	}
}

func TestBadNodeRetry(t *testing.T) {
	t.Parallel()
	s := sim.New(5)
	log := trace.NewLog()
	sc := New(s, log, Config{Kind: LSF, Env: "onprem-gpu", TotalNodes: 64,
		BadNodeProb: 0.5, MaxRetries: 10})
	completed := 0
	for i := 0; i < 20; i++ {
		sc.Submit(&Job{Name: "qs", Nodes: 64, Duration: time.Minute,
			OnFinish: func(j *Job) {
				if j.State == Completed {
					completed++
				}
			}})
	}
	s.Run()
	if completed != 20 {
		t.Fatalf("completed %d of 20 despite retries", completed)
	}
	var failures int
	for _, j := range sc.Done() {
		if j.State == Failed {
			failures++
		}
	}
	if failures == 0 {
		t.Fatalf("with 50%% bad-node probability there must be failures")
	}
}

func TestStateString(t *testing.T) {
	t.Parallel()
	want := map[State]string{Pending: "pending", Stalled: "stalled", Running: "running",
		Completed: "completed", Failed: "failed", State(42): "state(42)"}
	for st, w := range want {
		if st.String() != w {
			t.Fatalf("State(%d) = %q, want %q", int(st), st.String(), w)
		}
	}
}

func TestPresetsKinds(t *testing.T) {
	t.Parallel()
	s := sim.New(1)
	log := trace.NewLog()
	if sc := NewOnPremSlurm(s, log, "a", 10); sc.Kind() != Slurm {
		t.Fatalf("cluster A runs Slurm")
	}
	if sc := NewOnPremLSF(s, log, "b", 10); sc.Kind() != LSF {
		t.Fatalf("cluster B runs LSF")
	}
	if sc := NewFlux(s, log, "k", 10); sc.Kind() != Flux {
		t.Fatalf("Kubernetes environments run Flux")
	}
	if sc := NewParallelClusterSlurm(s, log, "pc", 10); sc.Kind() != Slurm {
		t.Fatalf("ParallelCluster runs Slurm")
	}
	if sc := NewCycleCloudSlurm(s, log, "cc", 10); sc.Kind() != Slurm {
		t.Fatalf("CycleCloud runs Slurm")
	}
}

func TestDeterministicReplay(t *testing.T) {
	t.Parallel()
	run := func() []time.Duration {
		s := sim.New(99)
		log := trace.NewLog()
		sc := NewCycleCloudSlurm(s, log, "cc", 128)
		var finishes []time.Duration
		for i := 0; i < 10; i++ {
			sc.Submit(&Job{Name: "j", Nodes: 64, Duration: 5 * time.Minute,
				OnFinish: func(j *Job) { finishes = append(finishes, j.FinishedAt) }})
		}
		s.Run()
		return finishes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replays diverged in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replays diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestSchedulerAllocs pins what one job costs the scheduler from Submit
// to completion: its submit trace line and the closures of its start and
// finish transitions. The queue keeps its backing array across pops, and
// simulator events carry no label.
func TestSchedulerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	const ceiling = 3
	const runs = 200
	s, _, sc := newSched(1, Config{Kind: Flux, Env: "e", TotalNodes: 64})
	jobs := make([]Job, runs+1) // AllocsPerRun makes one warm-up call
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		j := &jobs[next]
		next++
		j.Name, j.Nodes, j.Duration = "lammps", 32, time.Minute
		if err := sc.Submit(j); err != nil {
			t.Fatal(err)
		}
		s.Run()
		if j.State != Completed {
			t.Fatalf("job %d ended %v, want completed", j.ID, j.State)
		}
	})
	if got > ceiling {
		t.Errorf("one job allocates %.0f from Submit to completion, want <= %d", got, ceiling)
	}
}
