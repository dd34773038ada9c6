package core

import (
	"fmt"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/dataset"
	"cloudhpc/internal/network"
	"cloudhpc/internal/sim"
)

// This file implements the fine-grained half of the work-partitioning
// plan. A study decomposes hierarchically:
//
//	study
//	└── environment shard        (lifecycle: provision, schedule, chaos, audit)
//	    └── (env, app) unit      (pure model + hookup draws)
//
// The only per-run randomness an environment consumes outside its
// lifecycle streams is the model's figure-of-merit jitter and the hookup
// jitter, and those draws come from a stream named after the (env, app)
// pair — so they are a pure function of (seed, env, app, scale order) and
// can be computed anywhere, in any order, on any worker. Every shard
// consumes them as planned draws: a unit precomputes one application's
// draws as its own pool task, and the environment assembly — enqueued by
// the environment's last unit to resolve — replays the lifecycle over
// them.
//
// The merge is hierarchical and deterministic at every level: units feed
// their environment's assembly in canonical application order, and
// assemblies merge into the study in canonical matrix order (study.go).

// runStreamName names the model/hookup noise stream of one (env, app)
// pair; the per-app stream is what makes (env, app) units independently
// computable.
func runStreamName(envKey, app string) string { return "core/run/" + envKey + "/" + app }

// plannedRun is one precomputed (env, app, scale, iter) outcome: the model
// result and the hookup draw, tagged with its coordinates so consumption
// can assert it is replaying the schedule the unit computed.
type plannedRun struct {
	nodes  int
	iter   int
	result apps.Result
	hookup time.Duration
}

// unitPlan is the output of one (env, app) unit: that application's
// planned runs across every scale of the environment, in consumption
// order, plus the assembly-side cursor.
type unitPlan struct {
	runs []plannedRun
	next int
}

// take consumes the next planned run, asserting its coordinates. Taking
// the last run releases the plan's backing slice: the assembly consumes
// units strictly in order, so an exhausted plan's decoded records are
// dead weight — dropping them as the merge streams through keeps the
// study's peak footprint at one unit, not every shard's full output.
func (u *unitPlan) take(app string, nodes, iter int) (plannedRun, error) {
	if u.next >= len(u.runs) {
		return plannedRun{}, fmt.Errorf("core: unit %s exhausted at nodes=%d iter=%d", app, nodes, iter)
	}
	pr := u.runs[u.next]
	if pr.nodes != nodes || pr.iter != iter {
		return plannedRun{}, fmt.Errorf("core: unit %s out of step: planned (nodes=%d iter=%d), consuming (nodes=%d iter=%d)",
			app, pr.nodes, pr.iter, nodes, iter)
	}
	u.next++
	if u.next == len(u.runs) {
		u.runs, u.next = nil, 0
	}
	return pr, nil
}

// itersFor is the per-run iteration count: the spec's repeat count, except
// the one study run the paper performed only once (the 8.82-minute-hookup
// LAMMPS at the 256-node AKS size). Units and assembly share it so the
// planned schedule and its consumption always agree.
func itersFor(spec apps.EnvSpec, nodes int, app string, base int) int {
	if spec.Key == "azure-aks-cpu" && nodes == 256 && app == "lammps" {
		return 1
	}
	return base
}

// scheduledRuns counts the runs one (env, app) unit plans: its
// iterations at every scale the environment can deploy. planUnit and
// decodeUnitPlan size their run slices by it, never by a stored count.
func scheduledRuns(spec apps.EnvSpec, app string, iterations int) int {
	maxNodes := apps.MaxNodesFor(spec)
	total := 0
	for _, nodes := range spec.Scales {
		if nodes <= maxNodes {
			total += itersFor(spec, nodes, app, iterations)
		}
	}
	return total
}

// planUnit computes the planned runs of one (env, app) unit. It draws
// from the stream runStreamName(spec.Key, m.Name()) of a private
// simulation seeded with the study's root seed, visiting the
// environment's scales in order — exactly the order the environment
// assembly consumes them.
func planUnit(seed uint64, spec apps.EnvSpec, m apps.Model, iterations int, hookup *network.HookupModel) *unitPlan {
	sm := sim.New(seed)
	rng := sm.Stream(runStreamName(spec.Key, m.Name()))
	u := &unitPlan{runs: make([]plannedRun, 0, scheduledRuns(spec, m.Name(), iterations))}
	maxNodes := apps.MaxNodesFor(spec)
	for _, nodes := range spec.Scales {
		if nodes > maxNodes {
			continue // the assembly skips this scale; no draws happen
		}
		iters := itersFor(spec, nodes, m.Name(), iterations)
		for it := 0; it < iters; it++ {
			r := m.Run(spec.Env, nodes, rng)
			hk := hookup.Hookup(spec.Provider, spec.Acc, spec.Kubernetes, nodes, rng)
			u.runs = append(u.runs, plannedRun{nodes: nodes, iter: it, result: r, hookup: hk})
		}
	}
	return u
}

// PlanUnitForBench exposes the (env, app) unit precompute to the root
// benchmark harness, which uses it to measure the fraction of the study
// that runs as unit tasks, off the environments' critical path. It
// returns the number of planned runs.
func PlanUnitForBench(seed uint64, spec apps.EnvSpec, m apps.Model, iterations int, hookup *network.HookupModel) int {
	return len(planUnit(seed, spec, m, iterations, hookup).runs)
}

// ensureUnit makes one (env, app) unit's planned draws available, in
// tier order: decoded from the persistent result store (a unit whose
// sub-hash was stored by any earlier study — the incremental-execution
// path), offloaded to an attached fleet of remote workers (which push the
// artifact into the same store), or computed on the calling worker and
// stored for the next study. It returns the event that reports the
// serving tier: EventUnitCached, EventUnitRemote, or EventUnitFinished.
// Units of the same shard may run concurrently: each owns a private
// simulation, and each writes only its own planned-run slot.
func (sh *shard) ensureUnit(appIdx int) EventKind {
	m := sh.rspec.Models[appIdx]
	iterations := sh.rspec.Iterations
	var key string
	if sh.store != nil {
		key = unitKey(sh.sim.Seed(), sh.spec, m.Name(), iterations, sh.unitChaos)
		if u, ok := sh.store.loadUnit(key, sh.spec, m.Name(), iterations); ok {
			sh.planned[appIdx] = u
			return EventUnitCached
		}
		if sh.fleet != nil {
			if u, ok := sh.offloadUnit(key, m.Name()); ok {
				sh.planned[appIdx] = u
				return EventUnitRemote
			}
		}
	}
	u := planUnit(sh.sim.Seed(), sh.spec, m, iterations, sh.hookup)
	if sh.store != nil {
		sh.store.saveUnit(dataset.UnitMeta{
			Version: storeSchemaVersion, Key: key, Seed: sh.sim.Seed(),
			Env: sh.spec.Key, App: m.Name(), Iterations: iterations,
		}, u)
	}
	sh.planned[appIdx] = u
	return EventUnitFinished
}

// offloadUnit publishes one unit to the attached fleet and, when a
// verified remote artifact lands, decodes it from the store — the same
// loadUnit a warm hit uses, so a remote unit is indistinguishable from a
// cached one byte-wise. Any refusal (no live workers, attempts
// exhausted, straggler deadline, shutdown) or a post-acceptance decode
// failure returns false and the caller computes locally: an absent or
// misbehaving fleet can never wedge a study or change its bytes.
func (sh *shard) offloadUnit(key, app string) (*unitPlan, bool) {
	observe := func(kind EventKind) {
		sh.sess.emit(Event{Kind: kind, Env: sh.spec.Key, App: app})
	}
	if !sh.fleet.Offload(sh.ctx, sh.unitWork(key, app), observe) {
		return nil, false
	}
	return sh.store.loadUnit(key, sh.spec, app, sh.rspec.Iterations)
}

// resolveUnit is ensureUnit bracketed by its observation events: one
// EventUnitStarted, then the closing event ensureUnit returns. Emission
// is pure observation; with no session attached this is exactly
// ensureUnit. Each unit task calls it exactly once.
func (sh *shard) resolveUnit(appIdx int) {
	app := sh.rspec.Models[appIdx].Name()
	sh.sess.emit(Event{Kind: EventUnitStarted, Env: sh.spec.Key, App: app})
	sh.sess.emit(Event{Kind: sh.ensureUnit(appIdx), Env: sh.spec.Key, App: app})
}

// draw produces the model result and hookup time of one run from the
// unit plan of its application.
func (sh *shard) draw(appIdx int, m apps.Model, nodes, iter int) (apps.Result, time.Duration, error) {
	pr, err := sh.planned[appIdx].take(m.Name(), nodes, iter)
	return pr.result, pr.hookup, err
}
