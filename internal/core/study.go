package core

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/chaos"
	"cloudhpc/internal/cloud"
	"cloudhpc/internal/containers"
	"cloudhpc/internal/network"
	"cloudhpc/internal/sim"
	"cloudhpc/internal/trace"
)

// Iterations is the study's per-scale repeat count (paper §2.8).
const Iterations = 5

// BudgetPerCloudUSD is the per-cloud budget (paper §2.1).
const BudgetPerCloudUSD = 49000

// study wires one execution together. Runner builds a fresh one for
// every run it computes (newStudy), so a study runs exactly once. The
// top-level substrates are the merge targets of that run: afterwards
// Log, Meter, Builder, and Registry hold the stitched-together view of
// every environment shard. Provisioners, quota managers, and placement
// services are per-shard concerns and are constructed inside the shards.
// Spec and Hookup are shared across shards read-only.
type study struct {
	// Spec is what the study runs: its matrix, iteration count, chaos
	// plan, disciplines and worker policy.
	Spec     *ResolvedSpec
	Sim      *sim.Simulation
	Log      *trace.Log
	Meter    *cloud.Meter
	Builder  *containers.Builder
	Registry *containers.Registry
	Hookup   *network.HookupModel
	// Store, when non-nil, is the persistent result store consulted for
	// (env, app) unit reuse: units whose sub-hash is already stored are
	// decoded instead of recomputed, and computed units are stored for
	// the next study. Runner.Store is the only way one gets here.
	Store *ResultStore
	// Fleet, when non-nil (and a Store is attached — the store is the
	// artifact exchange), offloads units that miss the store to remote
	// workers instead of computing them on the local pool. The delegate
	// decides per unit; a refusal falls back to local compute, so
	// execution never depends on fleet availability.
	Fleet FleetDelegate

	// jobNames[app][iter] is the scheduler job name of a run ("lammps-0"),
	// indexed like Spec.Models; built once and shared read-only by every
	// shard, so a run formats no name.
	jobNames [][]string
}

// RunRecord is one application execution in the study dataset.
type RunRecord struct {
	EnvKey string
	App    string
	Nodes  int
	Iter   int
	FOM    float64
	Unit   string
	Err    error
	Wall   time.Duration
	Hookup time.Duration
	// CostUSD attributes instance cost to the run: nodes × wall × rate
	// (Table 4's accounting — execution time, cluster size, instance cost).
	CostUSD float64
}

// Incident is one injected fault with its recovery cost, surfaced from
// the chaos engine onto the study dataset.
type Incident = chaos.Incident

// Recovery aggregates the cost of recovering from injected faults:
// preemptions, re-queued jobs, lost node-hours, and the estimated billing
// impact.
type Recovery = chaos.Accounting

// Results is the study dataset.
type Results struct {
	Runs     []RunRecord
	Log      *trace.Log
	Meter    *cloud.Meter
	Envs     []apps.EnvSpec
	ECCOn    map[string]float64               // env → fraction of GPUs with ECC enabled
	Findings []apps.Finding                   // single-node audit anomalies
	Hookups  map[string]map[int]time.Duration // env → nodes → hookup
	// Incidents are the injected faults in canonical matrix order, on the
	// merged campaign timeline (empty without a chaos plan).
	Incidents []Incident
	// Recovery is the study-wide recovery accounting (zero without a
	// chaos plan).
	Recovery Recovery
	// Builds is the merged container-build funnel (paper §3.1): attempts,
	// images, usable images, failures across every environment.
	Builds containers.Funnel
}

// newStudy builds a study from an already-materialized spec. Runner
// resolves once and builds from that, so the dataset executed always
// matches the key it is stored under even if a referenced chaos plan
// file changes on disk in between.
func newStudy(r *ResolvedSpec) *study {
	s := sim.New(r.Seed)
	log := trace.NewLog()
	meter := cloud.NewMeter(s, log)
	for _, p := range []cloud.Provider{cloud.AWS, cloud.Azure, cloud.Google} {
		meter.SetBudget(p, BudgetPerCloudUSD)
	}
	jobNames := make([][]string, len(r.Models))
	for i, m := range r.Models {
		jobNames[i] = make([]string, r.Iterations)
		for it := range jobNames[i] {
			jobNames[i][it] = m.Name() + "-" + strconv.Itoa(it)
		}
	}
	return &study{
		Spec:     r,
		Sim:      s,
		Log:      log,
		Meter:    meter,
		Builder:  containers.NewBuilder(s, log),
		Registry: containers.NewRegistry(),
		Hookup:   network.NewHookupModel(),
		jobNames: jobNames,
	}
}

// runSession executes the whole study under ctx and returns the dataset,
// emitting every study, environment, and unit transition (plus injected
// incidents and plan progress) on sess as an Event. Emission is pure
// observation — no RNG draws, no ordering impact — and nil-safe, so an
// unobserved run (sess == nil) pays nothing.
//
// Execution follows one work-partitioning plan. Every environment of the
// matrix runs as one independent shard with its own virtual clock, event
// queue, RNG streams, and substrate instances, and every shard consumes
// planned (env, app) unit draws (see unit.go). Each unit of a deployed
// environment runs as its own pool task, and the environment's lifecycle
// assembly is enqueued by whichever of its units finishes last, so
// assemblies overlap with other environments' units and the pool keeps
// scaling past the environment count. All tasks are dispatched over a
// pool of the spec's workers goroutines (default runtime.NumCPU()).
//
// Because every unit's and shard's behaviour depends only on the root
// seed and its own (env, app) coordinates — never on which worker ran it
// or when — and the hierarchical merge always stitches units into their
// environment in canonical application order and environments into the
// study in matrix order, the returned Results — run records, trace, and
// billing — are byte-identical for every worker count.
//
// Cancelling ctx stops dispatching new work units, drains the in-flight
// ones (each of which also checks the context between scales and
// applications, so the drain is bounded by fractions of one unit's
// runtime), skips the merge, and returns ctx's error. The persistent
// store is never left torn: every artifact write is atomic.
func (st *study) runSession(ctx context.Context, sess *Session) (*Results, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	shards := make([]*shard, len(st.Spec.Envs))
	for i, spec := range st.Spec.Envs {
		shards[i] = st.newShard(spec)
		shards[i].ctx = ctx
		shards[i].sess = sess
	}

	// Build the task list. Tasks may enqueue follow-up tasks (a shard's
	// last unit enqueues its assembly), so the queue is buffered for the
	// whole plan and completion is tracked by counting tasks, not by
	// closing the channel early.
	units := len(st.Spec.Models) // per deployed environment
	total := len(shards)
	for _, sh := range shards {
		if sh.spec.Unavailable == "" {
			total += units
		}
	}
	workers := st.Spec.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}

	sess.setTotal(total)
	sess.emit(Event{Kind: EventStudyStarted, Total: total})

	// Every planned task is enqueued before the pool starts, so the
	// queue's order is the plan's and, at one worker, so is the event
	// order. The queue holds all total tasks, so neither this loop nor a
	// unit enqueueing its assembly ever blocks.
	queue := make(chan func(), total)
	var pending sync.WaitGroup
	pending.Add(total)
	for _, sh := range shards {
		sh := sh
		if sh.spec.Unavailable != "" || units == 0 {
			queue <- st.envTask(ctx, sess, sh)
			continue
		}
		remaining := int32(units)
		for appIdx := 0; appIdx < units; appIdx++ {
			appIdx := appIdx
			queue <- func() {
				// A cancelled plan still runs its dispatch accounting (the
				// assembly enqueue keeps the pending count exact); only the
				// work itself — and its progress credit — is skipped.
				if ctx.Err() == nil {
					sh.resolveUnit(appIdx)
					sess.taskDone()
				}
				if atomic.AddInt32(&remaining, -1) == 0 {
					queue <- st.envTask(ctx, sess, sh) // hierarchical merge level 1: units → environment
				}
			}
		}
	}
	var pool sync.WaitGroup
	for w := 0; w < workers; w++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			for task := range queue {
				task()
				pending.Done()
			}
		}()
	}
	pending.Wait()
	close(queue)
	pool.Wait()

	if err := ctx.Err(); err != nil {
		// Cancelled: the pool has drained, partial shard state is
		// discarded unmerged (the study substrates were never touched),
		// and any unit artifacts already stored are complete — the store
		// only ever sees atomic whole-artifact writes.
		return nil, err
	}
	return st.merge(shards) // hierarchical merge level 2: environments → study
}

// envTask wraps one environment shard's execution as a pool task,
// bracketed by its observation events: started/skipped, the injected
// incidents, and finished/failed.
func (st *study) envTask(ctx context.Context, sess *Session, sh *shard) func() {
	return func() {
		if ctx.Err() != nil {
			return
		}
		defer sess.taskDone()
		if sh.spec.Unavailable != "" {
			sh.run() // logs the not-deployed trace event
			sess.emit(Event{Kind: EventEnvSkipped, Env: sh.spec.Key})
			return
		}
		sess.emit(Event{Kind: EventEnvStarted, Env: sh.spec.Key})
		sh.run()
		if sh.chaos != nil {
			for _, inc := range sh.chaos.Incidents() {
				inc := inc
				sess.emit(Event{Kind: EventIncident, Env: sh.spec.Key, Incident: &inc})
			}
		}
		if sh.err != nil {
			sess.emit(Event{Kind: EventEnvFailed, Env: sh.spec.Key, Err: sh.err})
		} else {
			sess.emit(Event{Kind: EventEnvFinished, Env: sh.spec.Key})
		}
	}
}

// merge stitches the finished shards into one dataset in canonical matrix
// order, laying the per-shard virtual timelines end to end: shard i's
// events and charges are shifted by the summed duration of shards 0..i-1,
// reconstructing the single sequential timeline the paper's study actually
// lived through (environments run one after another over weeks, so the
// freshest charges at study end belong to the last environments of the
// matrix — which is what the cost-reporting-lag model needs). The offsets
// depend only on the shards' own deterministic durations, never on
// scheduling, so the merged output is identical for any worker count.
func (st *study) merge(shards []*shard) (*Results, error) {
	res := &Results{
		Log: st.Log, Meter: st.Meter, Envs: st.Spec.Envs,
		ECCOn:   make(map[string]float64),
		Hookups: make(map[string]map[int]time.Duration),
	}
	totalRuns, totalEvents, totalFindings, totalIncidents := 0, 0, 0, 0
	for _, sh := range shards {
		totalRuns += len(sh.res.Runs)
		totalEvents += sh.log.Len()
		totalFindings += len(sh.res.Findings)
		totalIncidents += sh.chaos.IncidentCount()
	}
	res.Runs = make([]RunRecord, 0, totalRuns)
	st.Log.Reserve(totalEvents)
	if totalFindings > 0 {
		res.Findings = make([]apps.Finding, 0, totalFindings)
	}
	if totalIncidents > 0 {
		res.Incidents = make([]Incident, 0, totalIncidents)
	}
	var offset time.Duration
	var firstErr error
	for _, sh := range shards {
		st.Log.AppendShifted(sh.log, offset)
		st.Meter.Merge(sh.meter, offset)
		st.Builder.Absorb(sh.build)
		st.Registry.Merge(sh.reg)
		res.Runs = append(res.Runs, sh.res.Runs...)
		res.Findings = append(res.Findings, sh.res.Findings...)
		for _, inc := range sh.chaos.Incidents() {
			inc.At += offset
			res.Incidents = append(res.Incidents, inc)
		}
		res.Recovery.Add(sh.chaos.Accounting())
		for k, v := range sh.res.ECCOn {
			res.ECCOn[k] = v
		}
		for k, v := range sh.res.Hookups {
			res.Hookups[k] = v
		}
		if sh.err != nil && firstErr == nil {
			firstErr = sh.err
		}
		offset += sh.sim.Now()
		// A merged shard's private substrates are dead weight; dropping
		// them as the merge streams through keeps the study's peak
		// footprint near one shard's unmerged state, not the matrix's.
		sh.log, sh.res, sh.meter, sh.prov, sh.build, sh.reg = nil, nil, nil, nil, nil, nil
	}
	// Leave the study clock at end-of-study so lag-dependent views
	// (ReportedSpend, UnreportedSpend) read as they would have at the end
	// of the real campaign.
	if offset > st.Sim.Now() {
		st.Sim.Clock.AdvanceTo(offset)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res.Builds = st.Builder.Funnel()
	return res, nil
}
