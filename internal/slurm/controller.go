package slurm

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"cloudhpc/internal/sim"
	"cloudhpc/internal/trace"
)

// JobState mirrors Slurm's squeue states (the subset the study met).
type JobState string

const (
	StatePending   JobState = "PD"
	StateRunning   JobState = "R"
	StateCompleted JobState = "CD"
	StateTimeout   JobState = "TO" // wall-limit kill — the Laghos cloud fate
	StateFailed    JobState = "F"
)

// Job is one batch submission.
type Job struct {
	ID        int
	Opts      BatchOptions
	State     JobState
	Submitted time.Duration
	Started   time.Duration
	Ended     time.Duration
	// RunFor is the job body's true duration (from an app model); the
	// controller kills it at Opts.TimeLimit if that comes first.
	RunFor time.Duration
	// OnEnd fires when the job reaches a terminal state.
	OnEnd func(*Job)
}

// Elapsed is the run time so far (or total when ended).
func (j *Job) Elapsed(now time.Duration) time.Duration {
	switch {
	case j.State == StateRunning:
		return now - j.Started
	case j.Ended > j.Started:
		return j.Ended - j.Started
	default:
		return 0
	}
}

// Partition is a named pool of nodes.
type Partition struct {
	Name  string
	Nodes int
	free  int
}

// Controller is slurmctld: partitions, a FIFO queue per partition, and
// wall-time enforcement, driven by the simulation clock.
type Controller struct {
	sim *sim.Simulation
	log *trace.Log
	env string

	partitions map[string]*Partition
	defaultPar string
	queue      []*Job
	jobs       map[int]*Job
	nextID     int
}

// Errors.
var (
	ErrUnknownPartition = errors.New("slurm: unknown partition")
	ErrTooLarge         = errors.New("slurm: job exceeds partition size")
)

// NewController creates slurmctld with the given partitions; the first is
// the default.
func NewController(s *sim.Simulation, log *trace.Log, env string, parts ...Partition) *Controller {
	c := &Controller{sim: s, log: log, env: env,
		partitions: make(map[string]*Partition), jobs: make(map[int]*Job)}
	for i := range parts {
		p := parts[i]
		p.free = p.Nodes
		c.partitions[p.Name] = &p
		if c.defaultPar == "" {
			c.defaultPar = p.Name
		}
	}
	return c
}

// Sbatch parses a script and enqueues the job, returning its ID.
func (c *Controller) Sbatch(script string, runFor time.Duration, onEnd func(*Job)) (int, error) {
	opts, err := ParseBatchScript(script)
	if err != nil {
		return 0, err
	}
	return c.SubmitOpts(opts, runFor, onEnd)
}

// SubmitOpts enqueues pre-parsed options.
func (c *Controller) SubmitOpts(opts BatchOptions, runFor time.Duration, onEnd func(*Job)) (int, error) {
	if opts.Partition == "" {
		opts.Partition = c.defaultPar
	}
	part, ok := c.partitions[opts.Partition]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownPartition, opts.Partition)
	}
	if opts.Nodes > part.Nodes {
		return 0, fmt.Errorf("%w: %d > %d in %s", ErrTooLarge, opts.Nodes, part.Nodes, part.Name)
	}
	c.nextID++
	j := &Job{ID: c.nextID, Opts: opts, State: StatePending,
		Submitted: c.sim.Now(), RunFor: runFor, OnEnd: onEnd}
	c.jobs[j.ID] = j
	c.queue = append(c.queue, j)
	c.schedule()
	return j.ID, nil
}

// schedule starts queued jobs FIFO per partition.
func (c *Controller) schedule() {
	remaining := c.queue[:0]
	for _, j := range c.queue {
		part := c.partitions[j.Opts.Partition]
		if j.Opts.Nodes <= part.free {
			part.free -= j.Opts.Nodes
			j.State = StateRunning
			j.Started = c.sim.Now()
			dur := j.RunFor
			timedOut := false
			if j.Opts.TimeLimit > 0 && dur > j.Opts.TimeLimit {
				dur = j.Opts.TimeLimit
				timedOut = true
			}
			job := j
			c.sim.After(dur, sim.Func(func() {
				c.finish(job, timedOut)
			}))
			continue
		}
		remaining = append(remaining, j)
	}
	c.queue = remaining
}

// finish moves a job to a terminal state and frees its nodes.
func (c *Controller) finish(j *Job, timedOut bool) {
	part := c.partitions[j.Opts.Partition]
	part.free += j.Opts.Nodes
	j.Ended = c.sim.Now()
	if timedOut {
		j.State = StateTimeout
		c.log.Addf(c.sim.Now(), c.env, trace.Manual, trace.Unexpected,
			"job %d %q killed at wall limit %v", j.ID, j.Opts.JobName, j.Opts.TimeLimit)
	} else {
		j.State = StateCompleted
	}
	if j.OnEnd != nil {
		j.OnEnd(j)
	}
	c.schedule()
}

// Cancel removes a pending job or kills a running one (scancel).
func (c *Controller) Cancel(id int) error {
	j, ok := c.jobs[id]
	if !ok {
		return fmt.Errorf("slurm: job %d unknown", id)
	}
	switch j.State {
	case StatePending:
		for i, q := range c.queue {
			if q == j {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				break
			}
		}
		j.State = StateFailed
		j.Ended = c.sim.Now()
		if j.OnEnd != nil {
			j.OnEnd(j)
		}
		return nil
	case StateRunning:
		// The completion event will still fire; mark the job failed now
		// and make finish a no-op for state (nodes are freed there).
		j.State = StateFailed
		return nil
	default:
		return fmt.Errorf("slurm: job %d already terminal (%s)", id, j.State)
	}
}

// Job returns a job by ID.
func (c *Controller) Job(id int) (*Job, bool) {
	j, ok := c.jobs[id]
	return j, ok
}

// Squeue renders the queue view: pending and running jobs, ID order.
func (c *Controller) Squeue() string {
	var ids []int
	for id, j := range c.jobs {
		if j.State == StatePending || j.State == StateRunning {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-12s %-10s %-4s %-8s %s\n", "JOBID", "NAME", "PARTITION", "ST", "NODES", "TIME")
	for _, id := range ids {
		j := c.jobs[id]
		fmt.Fprintf(&b, "%-8d %-12s %-10s %-4s %-8d %s\n",
			j.ID, j.Opts.JobName, j.Opts.Partition, j.State, j.Opts.Nodes,
			j.Elapsed(c.sim.Now()).Round(time.Second))
	}
	return b.String()
}

// Sinfo renders partition state.
func (c *Controller) Sinfo() string {
	names := make([]string, 0, len(c.partitions))
	for n := range c.partitions {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-8s %-8s %-8s\n", "PARTITION", "NODES", "ALLOC", "IDLE")
	for _, n := range names {
		p := c.partitions[n]
		fmt.Fprintf(&b, "%-12s %-8d %-8d %-8d\n", p.Name, p.Nodes, p.Nodes-p.free, p.free)
	}
	return b.String()
}
