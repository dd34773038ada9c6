package sched

import (
	"testing"
	"time"
)

func TestBackfillSmallJobJumpsBlockedHead(t *testing.T) {
	t.Parallel()
	s, _, sc := newSched(1, Config{Kind: Slurm, Env: "bf", TotalNodes: 100, Backfill: true})
	var order []string
	submit := func(name string, nodes int, dur time.Duration) {
		if err := sc.Submit(&Job{Name: name, Nodes: nodes, Duration: dur,
			OnFinish: func(j *Job) { order = append(order, j.Name) }}); err != nil {
			t.Fatal(err)
		}
	}
	// Occupy 60 nodes for 1h; the 80-node head must wait for it.
	submit("running", 60, time.Hour)
	submit("head", 80, time.Hour)
	// A 30-minute, 40-node job fits the idle 40 nodes and finishes before
	// the head could ever start — a textbook backfill.
	submit("filler", 40, 30*time.Minute)
	s.Run()
	if len(order) != 3 {
		t.Fatalf("finished %d jobs", len(order))
	}
	if order[0] != "filler" {
		t.Fatalf("filler should complete first via backfill: %v", order)
	}
	// The head must not have been delayed: it starts when "running" ends
	// (1h) and finishes at 2h.
	for _, j := range sc.Done() {
		if j.Name == "head" && j.StartedAt != time.Hour {
			t.Fatalf("head delayed by backfill: started at %v", j.StartedAt)
		}
	}
}

func TestBackfillRefusesHeadDelayingJob(t *testing.T) {
	t.Parallel()
	s, _, sc := newSched(1, Config{Kind: Slurm, Env: "bf", TotalNodes: 100, Backfill: true})
	var order []string
	submit := func(name string, nodes int, dur time.Duration) {
		sc.Submit(&Job{Name: name, Nodes: nodes, Duration: dur,
			OnFinish: func(j *Job) { order = append(order, j.Name) }})
	}
	submit("running", 60, time.Hour)
	submit("head", 80, time.Hour)
	// This candidate fits the idle nodes but would still be running when
	// the head could start, and its nodes overlap the head's need.
	submit("greedy", 40, 2*time.Hour)
	s.Run()
	// The head must still start at 1h.
	for _, j := range sc.Done() {
		if j.Name == "head" && j.StartedAt != time.Hour {
			t.Fatalf("greedy job delayed the head: started %v", j.StartedAt)
		}
	}
}

func TestBackfillSparesHeadNodes(t *testing.T) {
	t.Parallel()
	// A long candidate can backfill if the head will not need its nodes.
	s, _, sc := newSched(1, Config{Kind: Slurm, Env: "bf", TotalNodes: 100, Backfill: true})
	var starts = map[string]time.Duration{}
	submit := func(name string, nodes int, dur time.Duration) {
		sc.Submit(&Job{Name: name, Nodes: nodes, Duration: dur,
			OnFinish: func(j *Job) { starts[j.Name] = j.StartedAt }})
	}
	submit("running", 60, time.Hour)
	submit("head", 50, time.Hour)
	// 10 nodes for 3h: at the head's earliest start (1h) there will be
	// 100 free; the head takes 50; 10 more still fit — no delay.
	submit("long-side", 10, 3*time.Hour)
	s.Run()
	if starts["long-side"] != 0 {
		t.Fatalf("side job should start immediately: %v", starts["long-side"])
	}
	if starts["head"] != time.Hour {
		t.Fatalf("head delayed: %v", starts["head"])
	}
}

func TestBackfillOffKeepsStrictFIFO(t *testing.T) {
	t.Parallel()
	s, _, sc := newSched(1, Config{Kind: Slurm, Env: "fifo", TotalNodes: 100})
	var order []string
	submit := func(name string, nodes int, dur time.Duration) {
		sc.Submit(&Job{Name: name, Nodes: nodes, Duration: dur,
			OnFinish: func(j *Job) { order = append(order, j.Name) }})
	}
	submit("running", 60, time.Hour)
	submit("head", 80, time.Hour)
	submit("filler", 40, 30*time.Minute)
	s.Run()
	// Without backfill the filler waits behind the head.
	if order[0] == "filler" {
		t.Fatalf("strict FIFO should not let the filler jump: %v", order)
	}
}

// TestBackfillSimultaneousFinishesAreDeterministic pins the head's
// shadow estimate when two running jobs end at the same instant. a and b
// both finish at 1h and together free all 100 nodes, so the 60-node head
// leaves 40 spare then and the 35-node, 2h candidate c may start at once.
// A walk that stops at the first finish freeing enough nodes reads 100 or
// 90 free, depending on the running map's iteration order, and at 90 it
// holds c behind the head until 1h.
func TestBackfillSimultaneousFinishesAreDeterministic(t *testing.T) {
	t.Parallel()
	for run := 0; run < 200; run++ {
		s, _, sc := newSched(1, Config{Kind: Slurm, Env: "bf", TotalNodes: 100, Backfill: true})
		c := &Job{Name: "c", Nodes: 35, Duration: 2 * time.Hour}
		for _, j := range []*Job{
			{Name: "a", Nodes: 10, Duration: time.Hour},
			{Name: "b", Nodes: 50, Duration: time.Hour},
			{Name: "head", Nodes: 60, Duration: time.Hour},
			c,
		} {
			if err := sc.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		s.Run()
		if c.StartedAt != 0 {
			t.Fatalf("run %d: c started at %v, want 0s (backfilled beside the head)", run, c.StartedAt)
		}
	}
}
