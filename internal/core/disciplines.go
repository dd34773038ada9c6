package core

import (
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/cloud"
	"cloudhpc/internal/trace"
)

// The paper's §4.2 disciplines as a shard carries them out, each turned
// on by its StudySpec field. All three act on the environment lifecycle,
// never on a unit's draws, and none applies on premises.

// shakeoutNodes sizes the test cluster of StudySpec.TestClusters.
const shakeoutNodes = 2

// applyPause implements StudySpec.Pause.
func (sh *shard) applyPause() {
	if sh.rspec.Pause <= 0 || sh.spec.OnPrem() {
		return
	}
	sh.sim.Clock.Advance(sh.rspec.Pause)
	sh.log.Addf(sh.sim.Now(), sh.spec.Key, trace.Info, trace.Routine,
		"paused %v for cost reporting to catch up (reported $%.2f of $%.2f actual)",
		sh.rspec.Pause,
		sh.meter.ReportedSpend(sh.spec.Provider), sh.meter.Spend(sh.spec.Provider))
}

// overBudget implements StudySpec.AbortOverBudget: it reports, and
// logs, that the environment's spend exceeds its budget share.
func (sh *shard) overBudget() bool {
	if !sh.rspec.AbortOverBudget || sh.spec.OnPrem() || !sh.meter.OverBudget(sh.spec.Provider) {
		return false
	}
	sh.log.Addf(sh.sim.Now(), sh.spec.Key, trace.Manual, trace.Blocking,
		"aborting: %s spend $%.0f exceeds this environment's budget share $%.0f",
		sh.spec.Provider, sh.meter.Spend(sh.spec.Provider), sh.meter.Budget(sh.spec.Provider))
	return true
}

// shakeout implements StudySpec.TestClusters: a tiny cluster, one quick
// run of the cheapest benchmark, teardown. Failures here are exactly what
// the test cluster exists to absorb.
func (sh *shard) shakeout() {
	if !sh.rspec.TestClusters || sh.spec.OnPrem() {
		return
	}
	cluster, err := sh.prov.Provision(cloud.ProvisionRequest{
		Env: sh.spec.Key, Type: sh.spec.Instance, Nodes: shakeoutNodes,
		Kubernetes: sh.spec.Kubernetes, AllowSpareNode: sh.spec.Provider == cloud.Azure,
	})
	if err != nil {
		sh.log.Addf(sh.sim.Now(), sh.spec.Key, trace.Setup, trace.Unexpected,
			"test cluster failed (better now than at full size): %v", err)
		return
	}
	rng := sh.sim.Stream("core/shakeout/" + sh.spec.Key)
	stream := apps.NewStream()
	r := stream.Run(sh.spec.Env, shakeoutNodes, rng)
	sh.log.Addf(sh.sim.Now(), sh.spec.Key, trace.Info, trace.Routine,
		"test cluster shakeout: stream triad %.1f %s on %d nodes", r.FOM, r.Unit, shakeoutNodes)
	sh.sim.Clock.Advance(10 * time.Minute)
	if err := sh.prov.Teardown(cluster); err != nil {
		sh.log.Addf(sh.sim.Now(), sh.spec.Key, trace.Setup, trace.Unexpected, "test teardown: %v", err)
	}
}
