package apps

import (
	"testing"

	"cloudhpc/internal/cloud"
	"cloudhpc/internal/sim"
)

// --- Mixbench / ECC ---

func TestMixbenchECCAudit(t *testing.T) {
	m := NewMixbench()
	rng := sim.NewStream(1, "ecc")
	azure := m.ECCAudit(env(t, "azure-aks-gpu"), 256, rng)
	if azure >= 1.0 || azure < 0.5 {
		t.Fatalf("Azure ECC-on fraction = %f, want mixed (paper: 12.5–25%% off)", azure)
	}
	for _, key := range []string{"aws-eks-gpu", "google-gke-gpu"} {
		if on := m.ECCAudit(env(t, key), 256, rng); on != 1.0 {
			t.Fatalf("%s ECC-on fraction = %f, want 1.0", key, on)
		}
	}
	if on := m.ECCAudit(env(t, "aws-eks-cpu"), 256, rng); on != 1.0 {
		t.Fatalf("CPU fleets trivially report ECC on")
	}
}

func TestMixbenchECCOffFaster(t *testing.T) {
	m := NewMixbench()
	e := env(t, "azure-aks-gpu")
	var on, off []float64
	for i := 0; i < 400; i++ {
		r := m.Run(e, 1, sim.NewStream(uint64(i), "mix"))
		if r.FOM > 6900 {
			off = append(off, r.FOM)
		} else {
			on = append(on, r.FOM)
		}
	}
	if len(off) == 0 || len(on) == 0 {
		t.Fatalf("Azure fleet should mix ECC states: %d off, %d on", len(off), len(on))
	}
	frac := float64(len(off)) / 400
	if frac < 0.1 || frac > 0.35 {
		t.Fatalf("ECC-off fraction = %f, want ~0.2", frac)
	}
}

// --- OSU wrapper ---

func TestOSULatencyOrdering(t *testing.T) {
	m := NewOSU()
	rng := sim.NewStream(7, "osu")
	ib := m.Run(env(t, "azure-cyclecloud-cpu"), 256, rng).FOM
	op := m.Run(env(t, "onprem-a-cpu"), 256, rng).FOM
	efa := m.Run(env(t, "aws-parallelcluster-cpu"), 256, rng).FOM
	goog := m.Run(env(t, "google-computeengine-cpu"), 256, rng).FOM
	if !(ib < efa && op < efa && efa < goog) {
		t.Fatalf("latency ordering wrong: ib=%f op=%f efa=%f google=%f", ib, op, efa, goog)
	}
}

func TestOSUInterferenceOnEKSAndAKS(t *testing.T) {
	// EKS/AKS ran latency and bandwidth simultaneously on the same nodes.
	m := NewOSU()
	eks := env(t, "aws-eks-cpu")
	pc := env(t, "aws-parallelcluster-cpu")
	if !m.path(eks).Interference {
		t.Fatalf("EKS measurements should carry interference")
	}
	if m.path(pc).Interference {
		t.Fatalf("ParallelCluster measurements are clean")
	}
	var eksSum, pcSum float64
	for i := 0; i < 50; i++ {
		eksSum += m.Run(eks, 256, sim.NewStream(uint64(i), "a")).FOM
		pcSum += m.Run(pc, 256, sim.NewStream(uint64(i), "b")).FOM
	}
	if eksSum <= pcSum {
		t.Fatalf("interference should raise EKS latency above ParallelCluster")
	}
}

func TestOSUSeriesShapes(t *testing.T) {
	m := NewOSU()
	e := env(t, "aws-eks-cpu")
	rng := sim.NewStream(9, "series")
	lat := m.LatencySeries(e, rng)
	bw := m.BandwidthSeries(e, rng)
	ar := m.AllReduceSeries(e, 256, rng)
	if len(lat) == 0 || len(bw) == 0 || len(ar) == 0 {
		t.Fatalf("series empty")
	}
	var spike, base float64
	for _, s := range ar {
		switch s.Bytes {
		case 32768:
			spike = s.Value
		case 4096:
			base = s.Value
		}
	}
	if spike < 2*base {
		t.Fatalf("AWS allreduce series must show the 32KiB spike: %f vs %f", spike, base)
	}
}

// --- Stream ---

func TestStreamCPUAggregates(t *testing.T) {
	m := NewStream()
	mean := func(key string) float64 {
		var s float64
		for i := 0; i < 60; i++ {
			s += m.Run(env(t, key), 64, sim.NewStream(uint64(i), "st")).FOM
		}
		return s / 60
	}
	gke, ce := mean("google-gke-cpu"), mean("google-computeengine-cpu")
	eks, aks := mean("aws-eks-cpu"), mean("azure-aks-cpu")
	// §3.3 means at size 64: GKE 6800, CE 6239, EKS 3013, AKS 2579.
	within := func(got, want float64) bool { return got > want*0.8 && got < want*1.2 }
	if !within(gke, 6800) || !within(ce, 6239) || !within(eks, 3013) || !within(aks, 2579) {
		t.Fatalf("CPU Triad aggregates off: gke=%f ce=%f eks=%f aks=%f", gke, ce, eks, aks)
	}
	if !(gke > ce && ce > eks && eks > aks) {
		t.Fatalf("CPU Triad ordering wrong: %f %f %f %f", gke, ce, eks, aks)
	}
}

func TestStreamGPUTriadTight(t *testing.T) {
	m := NewStream()
	google := m.Run(env(t, "google-gke-gpu"), 32, sim.NewStream(1, "g")).FOM
	azure := m.Run(env(t, "azure-aks-gpu"), 32, sim.NewStream(1, "a")).FOM
	onprem := m.Run(env(t, "onprem-b-gpu"), 64, sim.NewStream(1, "b")).FOM
	if google < 780 || google > 786 {
		t.Fatalf("GKE GPU Triad = %f, want ~783", google)
	}
	if azure < 735 || azure > 762 {
		t.Fatalf("AKS GPU Triad = %f, want ~748", azure)
	}
	if onprem < 779 || onprem > 786 {
		t.Fatalf("B GPU Triad = %f, want ~782", onprem)
	}
}

// --- Single node ---

func TestSingleNodeCollectAndAudit(t *testing.T) {
	it := cloud.InstanceType{Name: "HB96rs v3", Provider: cloud.Azure, Processor: "AMD EPYC 7003", Cores: 96, ClockGHz: 3.5}
	nodes := []*cloud.Node{
		{ID: "n1", Type: &it, VisibleCores: 96, VisibleGPUs: 0, Healthy: true},
		{ID: "n2", Type: &it, VisibleCores: 2, VisibleGPUs: 0, Healthy: true}, // supermarket fish
		{ID: "n3", Type: &it, VisibleCores: 96, VisibleGPUs: 0, Healthy: true},
	}
	rng := sim.NewStream(1, "inv")
	var reports []Report
	for _, n := range nodes {
		reports = append(reports, Collect(n, rng))
	}
	findings := Audit(nodes, reports)
	if len(findings) != 1 || findings[0].NodeID != "n2" {
		t.Fatalf("audit should flag exactly the fish node: %+v", findings)
	}
	if reports[1].Processors != 2 {
		t.Fatalf("inventory should report the visible processor count")
	}
}

func TestSingleNodeFOMScalesWithCores(t *testing.T) {
	m := NewSingleNode()
	rng := sim.NewStream(2, "sn")
	big := m.Run(env(t, "onprem-a-cpu"), 1, rng).FOM     // 112 cores
	small := m.Run(env(t, "google-gke-cpu"), 1, rng).FOM // 56 cores
	if big <= small {
		t.Fatalf("112-core node should outscore 56-core node: %f vs %f", big, small)
	}
}
