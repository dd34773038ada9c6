package core

import (
	"fmt"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/chaos"
	"cloudhpc/internal/cloud"
	"cloudhpc/internal/trace"
)

// Options turn on the operational disciplines the paper's §4.2 suggests,
// plus the executor's concurrency knob. The zero value reproduces the study
// as it was actually run (its (environment, application) units and
// environment assemblies dispatched over all available CPUs — the dataset
// is identical for every worker count).
type Options struct {
	// Workers bounds the number of work units executing at once.
	// Zero or negative means runtime.NumCPU(). The results do not depend on
	// this value — only the wall-clock time of a run does.
	Workers int
	// PauseBetweenScales inserts a wait after each cluster size so that
	// lagged cost reporting catches up before committing to the next,
	// larger (more expensive) size — "Operating on a cloud environment
	// with a one-day reporting delay warrants careful planning and pauses
	// between experiments."
	PauseBetweenScales time.Duration
	// TestClusters brings up a small shakeout cluster per environment
	// before the real sizes — "When feasible, we recommend employing test
	// clusters to prepare experiments and test configurations."
	TestClusters bool
	// TestClusterNodes sizes the shakeout cluster (default 2).
	TestClusterNodes int
	// AbortOverBudget stops an environment when spend exceeds the
	// provider's budget. Without it, overspend is only discovered after
	// the reporting lag — "it is very difficult to fix overspending
	// retroactively." Under sharded execution concurrent environments
	// cannot observe each other's spend, so the provider budget is split
	// evenly across the provider's deployable cloud environments and each
	// shard aborts against its share — the provider-wide cap holds in
	// aggregate.
	AbortOverBudget bool
	// Chaos, when non-nil, enables the deterministic fault-injection
	// engine: each environment shard draws scenario faults (spot
	// reclaims, stockouts, quota revocations, network degradation,
	// registry pull failures) from its private "chaos/<env>" stream per
	// the plan. The plan is shared read-only across shards; the chaotic
	// dataset is still byte-identical for every worker count at a fixed
	// (seed, plan). Injected incidents and their recovery cost surface in
	// Results.Incidents and Results.Recovery.
	Chaos *chaos.Plan
}

// ErrBudgetExhausted aborts an environment under AbortOverBudget.
var ErrBudgetExhausted = fmt.Errorf("core: provider budget exhausted")

// applyPause implements PauseBetweenScales.
func (sh *shard) applyPause() {
	if sh.opts.PauseBetweenScales <= 0 || sh.spec.OnPrem() {
		return
	}
	sh.sim.Clock.Advance(sh.opts.PauseBetweenScales)
	sh.log.Addf(sh.sim.Now(), sh.spec.Key, trace.Info, trace.Routine,
		"paused %v for cost reporting to catch up (reported $%.2f of $%.2f actual)",
		sh.opts.PauseBetweenScales,
		sh.meter.ReportedSpend(sh.spec.Provider), sh.meter.Spend(sh.spec.Provider))
}

// checkBudget implements AbortOverBudget.
func (sh *shard) checkBudget() error {
	if !sh.opts.AbortOverBudget || sh.spec.OnPrem() {
		return nil
	}
	if sh.meter.OverBudget(sh.spec.Provider) {
		sh.log.Addf(sh.sim.Now(), sh.spec.Key, trace.Manual, trace.Blocking,
			"aborting: %s spend $%.0f exceeds this environment's budget share $%.0f",
			sh.spec.Provider, sh.meter.Spend(sh.spec.Provider), sh.meter.Budget(sh.spec.Provider))
		return fmt.Errorf("%w: %s at $%.0f", ErrBudgetExhausted, sh.spec.Provider, sh.meter.Spend(sh.spec.Provider))
	}
	return nil
}

// shakeout implements TestClusters: a tiny cluster, one quick run of the
// cheapest benchmark, teardown. Failures here are exactly what the test
// cluster exists to absorb.
func (sh *shard) shakeout() {
	if !sh.opts.TestClusters || sh.spec.OnPrem() {
		return
	}
	nodes := sh.opts.TestClusterNodes
	if nodes <= 0 {
		nodes = 2
	}
	cluster, err := sh.prov.Provision(cloud.ProvisionRequest{
		Env: sh.spec.Key, Type: sh.spec.Instance, Nodes: nodes,
		Kubernetes: sh.spec.Kubernetes, AllowSpareNode: sh.spec.Provider == cloud.Azure,
	})
	if err != nil {
		sh.log.Addf(sh.sim.Now(), sh.spec.Key, trace.Setup, trace.Unexpected,
			"test cluster failed (better now than at full size): %v", err)
		return
	}
	rng := sh.sim.Stream("core/shakeout/" + sh.spec.Key)
	stream := apps.NewStream()
	r := stream.Run(sh.spec.Env, nodes, rng)
	sh.log.Addf(sh.sim.Now(), sh.spec.Key, trace.Info, trace.Routine,
		"test cluster shakeout: stream triad %.1f %s on %d nodes", r.FOM, r.Unit, nodes)
	sh.sim.Clock.Advance(10 * time.Minute)
	if err := sh.prov.Teardown(cluster); err != nil {
		sh.log.Addf(sh.sim.Now(), sh.spec.Key, trace.Setup, trace.Unexpected, "test teardown: %v", err)
	}
}
