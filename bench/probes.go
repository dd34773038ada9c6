package main

// Layer probes of the traced run: each times one layer's public entry
// point on a fixed input at study shape, the same on every workload, so
// a layer's speed is reported even on workloads whose requests never
// reach it (report rendering on the daemon, codecs on a cold run's read
// side, the fleet off the daemon).

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/cloud"
	"cloudhpc/internal/core"
	"cloudhpc/internal/dataset"
	"cloudhpc/internal/fleet"
	"cloudhpc/internal/flux"
	"cloudhpc/internal/k8s"
	"cloudhpc/internal/rpc"
	"cloudhpc/internal/sim"
	"cloudhpc/internal/trace"
)

// probeEnv is the environment the compute probes run: Kubernetes on AWS
// at 256 nodes, the largest CPU shape of the study.
const probeEnv = "aws-eks-cpu"

// timeMedian runs fn reps times and returns the median wall time in
// milliseconds.
func timeMedian(reps int, fn func() error) (float64, error) {
	v := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		v = append(v, ms(time.Since(t)))
	}
	return median(v), nil
}

// probes measures every layer probe on the seed-2025 dataset g. Each
// probe is scaled to the reference host's speed by a calibration taken
// right before it.
func probes(reps int, g *core.Results, out map[string]metric) error {
	var err error
	set := func(name, unit string, scale float64, reps int, fn func() error) {
		if err != nil {
			return
		}
		k := calibNominalMs / calibrate(3)
		var v float64
		v, err = timeMedian(reps, fn)
		out[name] = metric{v * scale * k, unit}
	}

	recs := g.Records()
	runs, err := dataset.MarshalJSONL(recs)
	if err != nil {
		return err
	}
	tr, err := g.Log.MarshalJSONL()
	if err != nil {
		return err
	}
	meter, err := g.Meter.MarshalCharges()
	if err != nil {
		return err
	}
	out["jsonl.bundle_mb"] = metric{float64(len(runs)+len(tr)+len(meter)) / 1e6, "MB"}
	set("report.render_ms", "ms", 1, reps, func() error { return render(g) })
	set("jsonl.encode_ms", "ms", 1, reps, func() error {
		if _, err := dataset.MarshalJSONL(recs); err != nil {
			return err
		}
		if _, err := g.Log.MarshalJSONL(); err != nil {
			return err
		}
		_, err := g.Meter.MarshalCharges()
		return err
	})
	set("jsonl.decode_ms", "ms", 1, reps, func() error {
		if _, err := dataset.UnmarshalJSONL(runs); err != nil {
			return err
		}
		if _, err := trace.UnmarshalJSONL(tr); err != nil {
			return err
		}
		_, err := cloud.UnmarshalCharges(meter)
		return err
	})

	env, e := apps.EnvByKey(probeEnv)
	if e != nil {
		return e
	}
	models, e := apps.SelectModels([]string{"*"})
	if e != nil {
		return e
	}
	set("core.env_ms", "ms", 1, reps, func() error {
		spec := studySpec(core.DefaultSeed)
		spec.Envs = []string{probeEnv}
		core.FlushCachedRuns()
		_, err := (&core.Runner{}).Run(context.Background(), spec)
		core.FlushCachedRuns()
		return err
	})
	// Per unit: the probe computes one unit of each application.
	set("core.unit_compute_ms", "ms", 1/float64(len(models)), reps, func() error {
		for _, m := range models {
			w := core.UnitWork{
				Key:  core.UnitKey(core.DefaultSeed, env, m.Name(), core.Iterations, nil),
				Seed: core.DefaultSeed, Env: env.Key, Scales: env.Scales, App: m.Name(), Iterations: core.Iterations,
			}
			if _, err := core.ComputeUnitFiles(w); err != nil {
				return err
			}
		}
		return nil
	})

	const nodes = 256
	set("flux.cluster_build_us", "us", 1e3, 10*reps, func() error {
		flux.NewCluster("hpc6a", nodes, 2, 48, 0)
		return nil
	})
	set("flux.spawn_us", "us", 1e3, 10*reps, func() error {
		in := flux.NewInstance("probe", flux.NewCluster("hpc6a", nodes, 2, 48, 0))
		_, alloc, err := in.Submit(flux.Jobspec{Name: "mc", NumSlots: nodes, CoresPerSlot: 96, NodeExclusive: true})
		if err != nil {
			return err
		}
		_, err = in.Spawn("child", alloc)
		return err
	})
	set("k8s.deploy_ms", "ms", 1, reps, func() error { return deployProbe(nodes) })

	co := fleet.New(fleet.Options{}, nil)
	defer co.Close()
	const batch = 100
	set("fleet.offload_us", "us", 1e3/batch, reps, func() error {
		for i := 0; i < batch; i++ {
			if co.Offload(context.Background(), core.UnitWork{Key: "probe"}, nil) {
				return errors.New("a workerless fleet accepted a unit")
			}
		}
		return nil
	})

	if err == nil {
		k := calibNominalMs / calibrate(3)
		var v float64
		v, err = rpcProbe(reps)
		out["rpc.call_ms"] = metric{v * k, "ms"}
	}
	return err
}

// deployProbe stands up the Flux Operator on a freshly provisioned EKS
// cluster, as the study's Kubernetes environments do (the cluster is
// built the way BenchmarkEKSStuckProvisioning builds it).
func deployProbe(nodes int) error {
	s := sim.New(1)
	log := trace.NewLog()
	meter := cloud.NewMeter(s, log)
	quota := cloud.NewQuotaManager(s, log)
	prov := cloud.NewProvisioner(s, log, meter, quota, cloud.NewPlacementService(s, log))
	quota.Request(cloud.AWS, cloud.CPU, nodes)
	it, err := cloud.NewCatalog().Lookup(cloud.AWS, "Hpc6a")
	if err != nil {
		return err
	}
	cluster, err := prov.Provision(cloud.ProvisionRequest{Env: probeEnv, Type: it, Nodes: nodes, Kubernetes: true})
	if err != nil {
		return err
	}
	kc := k8s.NewCluster(s, log, probeEnv, k8s.EKS, cluster)
	kc.Apply(k8s.EFADevicePlugin)
	_, err = kc.DeployFluxOperator()
	if errors.Is(err, k8s.ErrCNIPrefixExhausted) {
		kc.Apply(k8s.CNIPrefixDelegation)
		_, err = kc.DeployFluxOperator()
	}
	return err
}

// rpcProbe times study.progress round trips against an in-process
// daemon holding one finished single-environment session.
func rpcProbe(reps int) (float64, error) {
	srv := &rpc.Server{Runner: &core.Runner{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns http.ErrServerClosed once closed below
	}()
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer func() {
		srv.Shutdown()
		hs.Close()
		<-served
		tr.CloseIdleConnections()
		core.FlushCachedRuns()
	}()
	cl := &rpc.Client{URL: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: tr}}
	ctx := context.Background()
	spec := studySpec(core.DefaultSeed)
	spec.Envs = []string{probeEnv}
	sub, err := cl.Submit(ctx, spec.String())
	if err != nil {
		return 0, err
	}
	if _, err := cl.Subscribe(ctx, sub.Session, 0, nil); err != nil {
		return 0, err
	}
	return timeMedian(10*reps, func() error {
		_, err := cl.Progress(ctx, sub.Session)
		return err
	})
}
