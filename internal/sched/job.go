// Package sched simulates the workload managers of the study: Slurm (the
// on-premises CPU cluster A, AWS ParallelCluster, Azure CycleCloud), LSF
// (the on-premises GPU cluster B), and Flux (every Kubernetes environment
// via the Flux Operator, and the Compute Engine VM clusters).
//
// The schedulers share one engine — a FIFO queue over a fixed node pool —
// parameterized with the per-environment behaviours the paper reports:
// on-premises queue waits, CycleCloud job stalls that needed manual kicks,
// and on-premises bad nodes that error jobs and force resubmission.
package sched

import (
	"errors"
	"fmt"
	"time"
)

// State is the lifecycle state of a job.
type State int

const (
	Pending State = iota
	Stalled       // accepted but wedged (CycleCloud behaviour); needs a kick
	Running
	Completed
	Failed
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Stalled:
		return "stalled"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// ErrNoCapacity is returned when a job asks for more nodes than the
// scheduler's pool will ever have.
var ErrNoCapacity = errors.New("sched: job exceeds total cluster capacity")

// Job is one submission. Duration is the application's execution time
// (computed by an app model); the scheduler adds queue wait and hookup.
//
// A submitted job is its own simulator event: the scheduler queues the
// *Job itself (a sim.Action) for its start and for its finish, so a job
// that neither stalls nor fails allocates only its submit trace line
// between Submit and completion.
type Job struct {
	ID       int
	Name     string
	Nodes    int
	Duration time.Duration
	// Hookup is time between job start and application start (paper §3.2).
	Hookup time.Duration

	State       State
	SubmittedAt time.Duration
	StartedAt   time.Duration
	FinishedAt  time.Duration
	Err         error
	Retries     int
	// estEnd is the scheduler's completion estimate, set when the job is
	// committed to nodes; backfill reasons from it.
	estEnd time.Duration
	// OnFinish runs when the job completes or fails (after state is set).
	OnFinish func(*Job)

	// sc is the scheduler the job was submitted to; Fire dispatches to it.
	sc *Scheduler
}

// Fire implements sim.Action for the scheduler's own events; callers
// never call it. A pending job's event is its start (after any queue
// wait); a running job's is its completion.
func (j *Job) Fire() {
	switch j.State {
	case Pending:
		j.sc.start(j)
	case Running:
		j.sc.finish(j, nil, false)
	}
}

// WrapperTime is the workload-manager-visible duration: hookup plus
// application time. The paper derives hookup by subtracting application
// wall time from this.
func (j *Job) WrapperTime() time.Duration { return j.Hookup + j.Duration }

// QueueWait is how long the job sat in the queue before starting.
func (j *Job) QueueWait() time.Duration { return j.StartedAt - j.SubmittedAt }
