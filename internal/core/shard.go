package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/chaos"
	"cloudhpc/internal/cloud"
	"cloudhpc/internal/containers"
	"cloudhpc/internal/k8s"
	"cloudhpc/internal/network"
	"cloudhpc/internal/sched"
	"cloudhpc/internal/sim"
	"cloudhpc/internal/trace"
)

// shard executes one environment of the matrix in complete isolation: it
// owns a private simulation (clock, event queue, and named RNG streams
// derived from the study's root seed), a private trace log, and private
// copies of every stateful substrate — meter, quota manager, placement
// service, provisioner, builder, and registry. The application models and
// the hookup model are shared with the study read-only (Run never mutates
// a model). Because random streams are
// derived from (seed, name) and every name a shard draws from is keyed by
// its environment, a shard's outputs depend only on the seed and its own
// spec — never on which worker ran it, when, or what other shards did.
// That independence is the entire determinism argument: the merge step can
// then stitch shards together in canonical matrix order and produce
// byte-identical results for any worker count.
type shard struct {
	spec apps.EnvSpec
	// rspec is the study's spec, shared read-only: models, iterations
	// (itersFor may lower them for single runs) and disciplines.
	rspec  *ResolvedSpec
	sim    *sim.Simulation
	log    *trace.Log
	meter  *cloud.Meter
	quota  *cloud.QuotaManager
	prov   *cloud.Provisioner
	build  *containers.Builder
	reg    *containers.Registry
	hookup *network.HookupModel
	// chaos injects this shard's share of the study's fault plan; nil when
	// no plan is set or no rule targets the environment. Its draws come
	// from the stream "chaos/<env>" of the shard's own simulation, so the
	// faults — like everything else a shard does — depend only on the
	// (seed, plan, spec) triple, never on scheduling.
	chaos *chaos.Engine
	// planned holds the per-application unit outputs the shard's runs
	// draw from (see unit.go), indexed like rspec.Models.
	planned []*unitPlan
	// store, when non-nil, serves and receives unit plans.
	store *ResultStore
	// unitChaos is the environment's chaos-plan slice in plan-file
	// syntax (unitChaosText), rendered once for every unit key and
	// fleet work tuple of the shard; empty without a store.
	unitChaos string
	// fleet, when non-nil alongside store, offloads store-missed units to
	// remote workers before falling back to local compute (see unit.go).
	fleet FleetDelegate

	// ctx is the run's cancellation context and sess its observing
	// session (nil when unobserved); runSession assigns both before
	// dispatch. Cancellation checks never draw from an RNG stream, so an
	// uncancelled run is bit-identical with or without them.
	ctx  context.Context
	sess *Session

	res *Results // shard-local slice of the dataset
	err error
}

// newShard builds the private substrate set for one environment. Budgets
// are inherited from the study meter so test overrides apply per shard;
// under StudySpec.AbortOverBudget each shard receives an equal share of its
// provider's budget (see budgetShare) so the provider-wide cap still holds
// even though concurrent environments cannot observe each other's spend.
func (st *study) newShard(spec apps.EnvSpec) *shard {
	s := sim.New(st.Sim.Seed())
	log := trace.NewLog()
	meter := cloud.NewMeter(s, log)
	for p, b := range st.Meter.Budgets() {
		meter.SetBudget(p, b)
	}
	if st.Spec.AbortOverBudget && !spec.OnPrem() {
		if share, ok := st.budgetShare(spec); ok {
			meter.SetBudget(spec.Provider, share)
		}
	}
	quota := cloud.NewQuotaManager(s, log)
	prov := cloud.NewProvisioner(s, log, meter, quota, cloud.NewPlacementService(s, log))
	reg := containers.NewRegistry()
	eng := chaos.NewEngine(st.Spec.Plan, spec.Key, spec.Instance.HourlyUSD, s, log)
	if eng != nil {
		prov.Capacity = eng
		reg.SetFaults(eng)
	}
	// The study's one anomalous node ("supermarket fish") surfaced on the
	// AKS CPU fleet; with per-shard node counters the incident is pinned to
	// that shard, at a bring-up that lands inside the audited largest
	// cluster (32+64+128 = 224 nodes precede it).
	if spec.Key == "azure-aks-cpu" {
		prov.FishEveryN = 450
	} else {
		prov.FishEveryN = 0
	}
	models := st.Spec.Models
	sh := &shard{
		spec:    spec,
		rspec:   st.Spec,
		sim:     s,
		log:     log,
		meter:   meter,
		quota:   quota,
		prov:    prov,
		build:   containers.NewBuilder(s, log),
		reg:     reg,
		hookup:  st.Hookup,
		chaos:   eng,
		planned: make([]*unitPlan, len(models)),
		store:   st.Store,
		fleet:   st.Fleet,
		res: &Results{
			// Sized to the shard's full schedule (scale skips only leave
			// slack); one backing array for the whole run set.
			Runs:    make([]RunRecord, 0, len(models)*len(spec.Scales)*st.Spec.Iterations),
			ECCOn:   make(map[string]float64),
			Hookups: make(map[string]map[int]time.Duration),
		},
	}
	if st.Store != nil {
		sh.unitChaos = unitChaosText(st.Spec.Plan, spec.Key)
	}
	return sh
}

// canceled reports the run's cancellation state; the executor checks it
// between scales and applications so an in-flight shard drains within a
// fraction of its lifecycle rather than running to completion.
func (sh *shard) canceled() error { return sh.ctx.Err() }

// budgetShare splits the provider's configured budget evenly across its
// deployable cloud environments. It reports false when the provider has no
// configured budget or no deployable cloud environments.
func (st *study) budgetShare(spec apps.EnvSpec) (float64, bool) {
	budgets := st.Meter.Budgets()
	b, ok := budgets[spec.Provider]
	if !ok {
		return 0, false
	}
	n := 0
	for _, e := range st.Spec.Envs {
		if e.Provider == spec.Provider && e.Unavailable == "" && !e.OnPrem() {
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return b / float64(n), true
}

// run executes the shard start to finish. Panics are captured into err so a
// defect in one environment cannot take down the worker pool.
func (sh *shard) run() {
	defer func() {
		if r := recover(); r != nil {
			sh.err = fmt.Errorf("core: shard %s panicked: %v", sh.spec.Key, r)
		}
	}()
	if sh.spec.Unavailable != "" {
		sh.log.Addf(sh.sim.Now(), sh.spec.Key, trace.Info, trace.Routine,
			"environment not deployed: %s", sh.spec.Unavailable)
		return
	}
	sh.requestQuota()
	if err := sh.runEnvironment(); err != nil {
		sh.err = fmt.Errorf("core: environment %s: %w", sh.spec.Key, err)
	}
}

// requestQuota asks for the study's quota grants for this environment's
// (provider, accelerator) pair — the same node counts the study requested
// up front (one spare Azure GPU node, anticipating the defective-node
// issue; on-prem "quota" is the clusters' capacity).
func (sh *shard) requestQuota() {
	p, acc := sh.spec.Provider, sh.spec.Acc
	switch {
	case p == cloud.OnPrem && acc == cloud.CPU:
		sh.quota.Request(p, acc, 1544) // cluster A capacity
	case p == cloud.OnPrem && acc == cloud.GPU:
		sh.quota.Request(p, acc, 795) // cluster B capacity
	case acc == cloud.CPU:
		sh.quota.Request(p, acc, 256)
	case p == cloud.Azure:
		sh.quota.Request(p, acc, 33) // one spare GPU node
	default:
		sh.quota.Request(p, acc, 32)
	}
}

// runEnvironment executes all scales and apps for the environment.
func (sh *shard) runEnvironment() error {
	spec := sh.spec
	ScriptedIncidents(sh.log, sh.sim.Now(), spec)
	images := sh.buildContainers()
	sh.shakeout()
	maxNodes := apps.MaxNodesFor(spec)

	for _, nodes := range spec.Scales {
		if err := sh.canceled(); err != nil {
			return err // cooperative drain; partial state is discarded unmerged
		}
		if nodes > maxNodes {
			sh.log.Addf(sh.sim.Now(), spec.Key, trace.Info, trace.Routine,
				"size %d skipped: inability to get GPUs", nodes)
			continue
		}
		if sh.overBudget() {
			return nil // environment aborted; the log explains why
		}
		sh.injectQuotaRevocation(nodes)
		if err := sh.runScale(nodes, images); err != nil {
			return err
		}
		sh.applyPause()
	}
	return nil
}

// buildContainers builds one container per app for cloud environments.
// On-premises builds happen on the machine itself and are covered by the
// scripted bare-metal incident.
func (sh *shard) buildContainers() map[string]containers.Image {
	images := make(map[string]containers.Image)
	if sh.spec.OnPrem() {
		return images
	}
	for _, m := range sh.rspec.Models {
		img, err := sh.build.Build(containers.CorrectSpec(m.Name(), sh.spec.Provider, sh.spec.Acc))
		if err != nil {
			continue // e.g. the Laghos GPU CUDA conflict
		}
		sh.reg.Push(img)
		images[m.Name()] = img
	}
	return images
}

// injectQuotaRevocation gives the chaos engine one chance per scale to
// claw back part of the environment's granted quota. Recovery mirrors the
// real procedure: re-file the original ask, then wait until the re-grant
// is usable — the chaos rule's regrant delay or the provider policy's own
// GrantDelay, whichever is longer — before committing to the scale.
func (sh *shard) injectQuotaRevocation(nodes int) {
	if sh.chaos == nil || sh.spec.OnPrem() {
		return
	}
	revoke, regrant, ok := sh.chaos.QuotaRevocation(nodes)
	if !ok {
		return
	}
	if n := sh.quota.Revoke(sh.spec.Provider, sh.spec.Acc, revoke); n == 0 {
		return
	}
	sh.requestQuota()
	if delay := sh.quota.Policy(sh.spec.Provider, sh.spec.Acc).GrantDelay; delay > regrant {
		regrant = delay
	}
	sh.sim.Clock.Advance(regrant)
}

// runScale brings up one cluster size, runs every app ×Iterations, and
// tears the cluster down ("each cluster size was deployed independently to
// be more cost effective").
func (sh *shard) runScale(nodes int, images map[string]containers.Image) error {
	spec := sh.spec
	scheduler, cluster, err := sh.deploy(nodes)
	if err != nil {
		return err
	}
	if sh.chaos != nil && !spec.OnPrem() {
		// Spot reclaims only exist where nodes can be reclaimed.
		scheduler.SetFaultInjector(sh.chaos)
	}

	for appIdx, m := range sh.rspec.Models {
		if err := sh.canceled(); err != nil {
			return err
		}
		iters := itersFor(spec, nodes, m.Name(), sh.rspec.Iterations)
		if iters < sh.rspec.Iterations {
			sh.log.Addf(sh.sim.Now(), spec.Key, trace.Info, trace.Routine,
				"lammps at size 256: single run due to long hookup time")
		}
		if _, needsImage := images[m.Name()]; !needsImage && !spec.OnPrem() && spec.ContainerRuntime != "" {
			// No container could be built (Laghos GPU): nothing to run.
			sh.res.Runs = append(sh.res.Runs, RunRecord{
				EnvKey: spec.Key, App: m.Name(), Nodes: nodes,
				Err: apps.ErrNotSupported, Unit: m.Unit(),
			})
			continue
		}
		for it := 0; it < iters; it++ {
			rec, err := sh.runOnce(appIdx, m, nodes, it, scheduler)
			if err != nil {
				return err
			}
			sh.res.Runs = append(sh.res.Runs, rec)
			if hk, ok := sh.res.Hookups[spec.Key]; ok {
				hk[nodes] = rec.Hookup
			} else {
				sh.res.Hookups[spec.Key] = map[int]time.Duration{nodes: rec.Hookup}
			}
		}
	}

	// Per-env fleet audits at the largest deployed size.
	if cluster != nil && nodes == apps.MaxNodesFor(spec) {
		sh.audit(cluster)
	}

	if cluster != nil {
		return sh.prov.Teardown(cluster)
	}
	return nil
}

// deploy provisions a cluster (cloud) or opens a queue (on-prem) and
// returns the environment's scheduler.
func (sh *shard) deploy(nodes int) (*sched.Scheduler, *cloud.Cluster, error) {
	spec := sh.spec
	if spec.OnPrem() {
		if spec.Acc == cloud.GPU {
			return sched.NewOnPremLSF(sh.sim, sh.log, spec.Key, nodes), nil, nil
		}
		return sched.NewOnPremSlurm(sh.sim, sh.log, spec.Key, nodes), nil, nil
	}

	// AWS GPU capacity only exists inside the late-month reservation
	// window; the team was "on call" for it.
	if err := sh.quota.Check(spec.Provider, spec.Acc, nodes); errors.Is(err, cloud.ErrReservationPending) {
		pol := sh.quota.Policy(spec.Provider, spec.Acc)
		if start, ok := pol.NextWindowStart(sh.sim.Now()); ok && start > sh.sim.Now() {
			sh.log.Addf(sh.sim.Now(), spec.Key, trace.Info, trace.Routine,
				"waiting for capacity block at %v", start)
			sh.sim.Clock.AdvanceTo(start)
		}
	}

	cluster, err := sh.prov.Provision(cloud.ProvisionRequest{
		Env: spec.Key, Type: spec.Instance, Nodes: nodes,
		Kubernetes: spec.Kubernetes, AllowSpareNode: spec.Provider == cloud.Azure,
	})
	if err != nil {
		return nil, nil, err
	}

	if spec.Kubernetes {
		scheduler, err := sh.deployKubernetes(cluster)
		return scheduler, cluster, err
	}

	// VM cluster: pull the containers once via Singularity on the shared
	// filesystem before spawning workers (suggested practice, §4.2).
	for _, tag := range sh.reg.Tags() {
		_, _ = containers.SingularityPull(sh.sim, sh.reg, tag, nodes, true)
	}
	var scheduler *sched.Scheduler
	switch {
	case spec.Provider == cloud.AWS:
		scheduler = sched.NewParallelClusterSlurm(sh.sim, sh.log, spec.Key, nodes)
	case spec.Provider == cloud.Azure:
		scheduler = sched.NewCycleCloudSlurm(sh.sim, sh.log, spec.Key, nodes)
	default: // Google Compute Engine runs Flux on VMs
		scheduler = sched.NewFlux(sh.sim, sh.log, spec.Key, nodes)
	}
	return scheduler, cluster, nil
}

// deployKubernetes stands up the managed service, daemonsets, and the Flux
// Operator MiniCluster.
func (sh *shard) deployKubernetes(cluster *cloud.Cluster) (*sched.Scheduler, error) {
	spec := sh.spec
	svc, err := k8s.ServiceFor(spec.Provider)
	if err != nil {
		return nil, err
	}
	kc := k8s.NewCluster(sh.sim, sh.log, spec.Key, svc, cluster)
	switch svc {
	case k8s.EKS:
		kc.Apply(k8s.EFADevicePlugin)
	case k8s.AKS:
		kc.Apply(k8s.AKSInfiniBandInstall)
	}
	if spec.Acc == cloud.GPU {
		kc.Apply(k8s.NVIDIADevicePlugin)
	}
	scheduler, err := kc.DeployFluxOperator()
	if errors.Is(err, k8s.ErrCNIPrefixExhausted) {
		// The study's fix: patch the CNI daemonset for prefix delegation.
		kc.Apply(k8s.CNIPrefixDelegation)
		scheduler, err = kc.DeployFluxOperator()
	}
	return scheduler, err
}

// runOnce submits one application run through the environment's scheduler
// and records the outcome. The model result and hookup time come from the
// application's unit plan (see unit.go); everything downstream of the
// draw is the environment lifecycle and always replays here, in
// canonical order. With a chaos engine attached, the run may hit a
// degraded network window (stretching hookup and wall time — and
// therefore cost) before submission, and a spot reclaim (via the
// scheduler's fault injector) after it.
func (sh *shard) runOnce(appIdx int, m apps.Model, nodes, iter int, scheduler *sched.Scheduler) (RunRecord, error) {
	spec := sh.spec
	result, hookup, err := sh.draw(appIdx, m, nodes, iter)
	if err != nil {
		return RunRecord{}, err
	}
	wall := result.Wall
	if sh.chaos != nil {
		wall, hookup = sh.chaos.DegradeRun(nodes, wall, hookup)
	}

	job := &sched.Job{Name: m.Name() + "-" + strconv.Itoa(iter), Nodes: nodes, Duration: wall, Hookup: hookup}
	if err := scheduler.Submit(job); err != nil {
		return RunRecord{EnvKey: spec.Key, App: m.Name(), Nodes: nodes, Iter: iter, Err: err, Unit: result.Unit}, nil
	}
	sh.sim.Run()

	rec := RunRecord{
		EnvKey: spec.Key, App: m.Name(), Nodes: nodes, Iter: iter,
		FOM: result.FOM, Unit: result.Unit, Err: result.Err,
		Wall: wall, Hookup: hookup,
		CostUSD: float64(nodes) * wall.Hours() * spec.Instance.HourlyUSD,
	}
	if rec.Err == nil && job.State == sched.Failed {
		rec.Err = job.Err
	}
	return rec, nil
}

// audit runs the single-node fleet audit and the Mixbench ECC survey on
// the largest cluster of the environment.
func (sh *shard) audit(cluster *cloud.Cluster) {
	spec := sh.spec
	rng := sh.sim.Stream("core/audit/" + spec.Key)
	reports := make([]apps.Report, 0, len(cluster.Nodes))
	for _, n := range cluster.Nodes {
		reports = append(reports, apps.Collect(n, rng))
	}
	findings := apps.Audit(cluster.Nodes, reports)
	for _, f := range findings {
		sh.log.Addf(sh.sim.Now(), spec.Key, trace.Info, trace.Unexpected,
			"supermarket fish: node %s %s", f.NodeID, f.Detail)
	}
	sh.res.Findings = append(sh.res.Findings, findings...)

	if spec.Acc == cloud.GPU {
		on, total := 0, 0
		for _, n := range cluster.Nodes {
			total += n.VisibleGPUs
			if n.ECCEnabled {
				on += n.VisibleGPUs
			}
		}
		if total > 0 {
			sh.res.ECCOn[spec.Key] = float64(on) / float64(total)
		}
	}
}
