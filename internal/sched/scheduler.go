package sched

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"cloudhpc/internal/sim"
	"cloudhpc/internal/trace"
)

// Kind names a workload manager flavour.
type Kind string

const (
	Slurm Kind = "Slurm"
	LSF   Kind = "LSF"
	Flux  Kind = "Flux"
)

// Config parameterizes a scheduler with per-environment behaviour.
type Config struct {
	Kind       Kind
	Env        string // trace key
	TotalNodes int

	// MeanQueueWait is the average queue wait when the cluster is
	// otherwise free — effectively zero on dedicated cloud clusters, and
	// substantial on the shared on-premises machines where the study's
	// jobs "needed to wait in the queue".
	MeanQueueWait time.Duration
	// StallProb is the chance a job wedges at start (CycleCloud: stalls
	// blamed on process management, module loading, Slurm, or the
	// environment) and must be noticed and kicked.
	StallProb float64
	// StallNoticeDelay is how long until a human notices and kicks a
	// stalled job — pure manual-intervention cost.
	StallNoticeDelay time.Duration
	// BadNodeProb is the chance a run dies on a bad node (the on-premises
	// failure mode: "often the runs were not successful due to a bad
	// node") and must be resubmitted by the user.
	BadNodeProb float64
	// MaxRetries bounds automatic resubmission after bad-node failures.
	MaxRetries int
	// Backfill enables conservative backfill: when the queue head does
	// not fit, later jobs may start if doing so cannot delay the head
	// (their wrapper time fits inside the head's earliest start). The
	// shared on-premises machines run backfill; the study's dedicated
	// cloud clusters did not need it.
	Backfill bool
}

// FaultInjector decides injected job failures — spot/preemptible node
// reclaims in the chaos engine's case. The scheduler consults it once per
// started job; frac is the fraction of the job's duration completed when
// the fault strikes, and requeue asks the scheduler to resubmit the job
// (bounded by Config.MaxRetries like bad-node retries). Implementations
// must be safe for concurrent use. A nil injector means no injected
// faults.
type FaultInjector interface {
	JobFault(name string, nodes int, dur time.Duration) (frac float64, requeue, ok bool)
}

// ErrPreempted marks jobs killed by an injected node reclaim.
var ErrPreempted = errors.New("sched: job preempted by node reclaim")

// Scheduler is the FIFO engine all three workload managers share.
type Scheduler struct {
	cfg     Config
	sim     *sim.Simulation
	log     *trace.Log
	rng     *sim.Stream
	faults  FaultInjector
	free    int
	queue   []*Job
	next    int
	running map[int]*Job

	// Completed and failed jobs, in finish order.
	done []*Job

	// finishScratch is headEarliestStart's reusable sort buffer; backfill
	// runs once per scheduling round, so the buffer never aliases live data.
	finishScratch []jobFinish
}

// jobFinish is one running job's projected completion, for backfill's
// shadow-time estimate.
type jobFinish struct {
	at    time.Duration
	nodes int
}

// New builds a scheduler over a node pool.
func New(s *sim.Simulation, log *trace.Log, cfg Config) *Scheduler {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	return &Scheduler{
		cfg:     cfg,
		sim:     s,
		log:     log,
		rng:     s.Stream("sched/" + cfg.Env),
		free:    cfg.TotalNodes,
		running: make(map[int]*Job),
	}
}

// Kind returns the workload manager flavour.
func (sc *Scheduler) Kind() Kind { return sc.cfg.Kind }

// SetFaultInjector attaches an injector consulted when jobs start
// running. Pass nil to detach.
func (sc *Scheduler) SetFaultInjector(fi FaultInjector) { sc.faults = fi }

// FreeNodes reports currently unallocated nodes.
func (sc *Scheduler) FreeNodes() int { return sc.free }

// QueueLen reports jobs waiting to start.
func (sc *Scheduler) QueueLen() int { return len(sc.queue) }

// Done returns finished jobs in completion order.
func (sc *Scheduler) Done() []*Job { return sc.done }

// Submit enqueues a job. The job starts when enough nodes free up; the
// simulation must be run (sim.Run) for anything to happen.
func (sc *Scheduler) Submit(j *Job) error {
	if j.Nodes <= 0 {
		return fmt.Errorf("sched: job %q requests %d nodes", j.Name, j.Nodes)
	}
	if j.Nodes > sc.cfg.TotalNodes {
		return fmt.Errorf("%w: want %d, cluster has %d", ErrNoCapacity, j.Nodes, sc.cfg.TotalNodes)
	}
	sc.next++
	j.ID = sc.next
	j.sc = sc
	j.State = Pending
	j.SubmittedAt = sc.sim.Now()
	sc.queue = append(sc.queue, j)
	// Hand-built "%s: submitted job %d %q (%d nodes)" — the single
	// hottest log line of a study (one per run plus retries).
	var a [96]byte
	b := append(a[:0], sc.cfg.Kind...)
	b = append(b, ": submitted job "...)
	b = strconv.AppendInt(b, int64(j.ID), 10)
	b = append(b, ' ')
	b = strconv.AppendQuote(b, j.Name)
	b = append(b, " ("...)
	b = strconv.AppendInt(b, int64(j.Nodes), 10)
	b = append(b, " nodes)"...)
	sc.log.Add(trace.Event{At: sc.sim.Now(), Env: sc.cfg.Env,
		Category: trace.Info, Severity: trace.Routine, Msg: string(b)})
	sc.trySchedule()
	return nil
}

// trySchedule starts queued jobs FIFO while nodes are available, then
// optionally backfills around a blocked head. The started prefix is
// copied out of the queue in place, so the backing array survives the
// pop and the next Submit appends into it instead of allocating a new one.
func (sc *Scheduler) trySchedule() {
	started := 0
	for started < len(sc.queue) && sc.queue[started].Nodes <= sc.free {
		sc.launch(sc.queue[started])
		started++
	}
	if started > 0 {
		n := copy(sc.queue, sc.queue[started:])
		clear(sc.queue[n:])
		sc.queue = sc.queue[:n]
	}
	if sc.cfg.Backfill && len(sc.queue) > 0 {
		sc.backfill()
	}
}

// launch dispatches one job (after any queue wait). The job is committed
// to its nodes immediately so backfill can reason about it.
func (sc *Scheduler) launch(j *Job) {
	sc.free -= j.Nodes
	wait := time.Duration(0)
	if sc.cfg.MeanQueueWait > 0 {
		// Long-tailed queue wait around the configured mean.
		wait = time.Duration(sc.rng.Jitter(float64(sc.cfg.MeanQueueWait), 0.5))
	}
	j.estEnd = sc.sim.Now() + wait + j.WrapperTime()
	sc.running[j.ID] = j
	sc.sim.After(wait, j) // fires start: the job is still pending
}

// backfill starts later queued jobs that cannot delay the blocked head:
// conservative EASY backfill using the jobs' declared wrapper times. The
// head's earliest start is when enough running jobs have finished; a
// candidate may jump the queue only if it finishes by then or fits in
// nodes the head will not need.
func (sc *Scheduler) backfill() {
	head := sc.queue[0]
	shadow, freeAtShadow := sc.headEarliestStart(head)
	kept := sc.queue[:1]
	for _, j := range sc.queue[1:] {
		fitsNow := j.Nodes <= sc.free
		finishesBeforeShadow := sc.sim.Now()+j.WrapperTime() <= shadow
		sparesTheHead := j.Nodes <= freeAtShadow-head.Nodes
		if fitsNow && (finishesBeforeShadow || sparesTheHead) {
			if sparesTheHead && !finishesBeforeShadow {
				freeAtShadow -= j.Nodes
			}
			sc.launch(j)
			continue
		}
		kept = append(kept, j)
	}
	sc.queue = kept
}

// headEarliestStart estimates when the queue head could start: walk the
// running jobs' completion times until enough nodes free up. Returns that
// time and the free nodes available then. Every finish at one instant is
// counted before the comparison, so jobs that end together yield the same
// answer whatever order the running map lists them in.
func (sc *Scheduler) headEarliestStart(head *Job) (time.Duration, int) {
	finishes := sc.finishScratch[:0]
	for _, j := range sc.running {
		finishes = append(finishes, jobFinish{at: j.estEnd, nodes: j.Nodes})
	}
	sc.finishScratch = finishes
	sort.Slice(finishes, func(i, k int) bool { return finishes[i].at < finishes[k].at })
	free := sc.free
	for i := 0; i < len(finishes); {
		at := finishes[i].at
		for ; i < len(finishes) && finishes[i].at == at; i++ {
			free += finishes[i].nodes
		}
		if free >= head.Nodes {
			return at, free
		}
	}
	// Head can start now or the estimate is unknowable; be conservative.
	return sc.sim.Now(), free
}

// start transitions a job to Running (or Stalled first).
func (sc *Scheduler) start(j *Job) {
	if sc.cfg.StallProb > 0 && sc.rng.Bernoulli(sc.cfg.StallProb) {
		j.State = Stalled
		sc.log.Addf(sc.sim.Now(), sc.cfg.Env, trace.Manual, trace.Unexpected,
			"%s: job %d %q stalled at start; monitoring required", sc.cfg.Kind, j.ID, j.Name)
		sc.sim.After(sc.cfg.StallNoticeDelay, sim.Func(func() {
			sc.log.Addf(sc.sim.Now(), sc.cfg.Env, trace.Manual, trace.Unexpected,
				"%s: kicked stalled job %d", sc.cfg.Kind, j.ID)
			sc.run(j)
		}))
		return
	}
	sc.run(j)
}

// run executes the job body and schedules its completion. Two failure
// sources can cut the job short: the environment's own bad nodes
// (Config.BadNodeProb, drawn from the scheduler's stream) and injected
// faults from the attached FaultInjector (drawn from the injector's own
// stream, so enabling injection never perturbs the bad-node draws).
func (sc *Scheduler) run(j *Job) {
	j.State = Running
	j.StartedAt = sc.sim.Now()
	dur := j.WrapperTime()
	if sc.cfg.BadNodeProb > 0 && sc.rng.Bernoulli(sc.cfg.BadNodeProb) {
		// Job dies partway through on a bad node.
		dur = time.Duration(sc.rng.Uniform(0.1, 0.9) * float64(dur))
		sc.sim.After(dur, sim.Func(func() {
			sc.finish(j, fmt.Errorf("sched: job %d died on a bad node", j.ID), true)
		}))
		return
	}
	if sc.faults != nil {
		if frac, requeue, ok := sc.faults.JobFault(j.Name, j.Nodes, dur); ok {
			cut := time.Duration(frac * float64(dur))
			sc.sim.After(cut, sim.Func(func() {
				sc.finish(j, fmt.Errorf("%w: job %d %q", ErrPreempted, j.ID, j.Name), requeue)
			}))
			return
		}
	}
	sc.sim.After(dur, j) // fires finish: the job is now running
}

// finish completes or fails a job, freeing nodes and — when requeue is
// set — resubmitting the failure up to MaxRetries times.
func (sc *Scheduler) finish(j *Job, failure error, requeue bool) {
	sc.free += j.Nodes
	delete(sc.running, j.ID)
	j.FinishedAt = sc.sim.Now()
	if failure != nil {
		j.State = Failed
		j.Err = failure
		verb := "failed on a bad node"
		if errors.Is(failure, ErrPreempted) {
			verb = "preempted by a node reclaim"
		}
		// Hand-built "%s: job %d %q %s (retry %d)".
		var a [112]byte
		b := append(a[:0], sc.cfg.Kind...)
		b = append(b, ": job "...)
		b = strconv.AppendInt(b, int64(j.ID), 10)
		b = append(b, ' ')
		b = strconv.AppendQuote(b, j.Name)
		b = append(b, ' ')
		b = append(b, verb...)
		b = append(b, " (retry "...)
		b = strconv.AppendInt(b, int64(j.Retries), 10)
		b = append(b, ')')
		sc.log.Add(trace.Event{At: sc.sim.Now(), Env: sc.cfg.Env,
			Category: trace.Manual, Severity: trace.Unexpected, Msg: string(b)})
		if requeue && j.Retries < sc.cfg.MaxRetries {
			retry := &Job{
				Name: j.Name, Nodes: j.Nodes, Duration: j.Duration,
				Hookup: j.Hookup, Retries: j.Retries + 1, OnFinish: j.OnFinish,
			}
			sc.done = append(sc.done, j)
			if j.OnFinish != nil {
				j.OnFinish(j)
			}
			if err := sc.Submit(retry); err != nil {
				sc.log.Addf(sc.sim.Now(), sc.cfg.Env, trace.Manual, trace.Blocking,
					"%s: resubmission failed: %v", sc.cfg.Kind, err)
			}
			sc.trySchedule()
			return
		}
	} else {
		j.State = Completed
	}
	sc.done = append(sc.done, j)
	if j.OnFinish != nil {
		j.OnFinish(j)
	}
	sc.trySchedule()
}
