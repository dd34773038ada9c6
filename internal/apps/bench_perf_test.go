package apps

// Library performance benchmarks: the per-run cost of every application
// model. The study harness evaluates thousands of model runs per full
// study; these benches keep that cheap.

import (
	"testing"

	"cloudhpc/internal/cloud"
	"cloudhpc/internal/sim"
)

func benchModel(b *testing.B, m Model, envKey string, nodes int) {
	b.Helper()
	spec, err := EnvByKey(envKey)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewStream(1, "bench/"+m.Name())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Run(spec.Env, nodes, rng)
	}
}

func BenchmarkModelAMG2023(b *testing.B)    { benchModel(b, NewAMG2023(), "aws-eks-cpu", 256) }
func BenchmarkModelLaghos(b *testing.B)     { benchModel(b, NewLaghos(), "azure-aks-cpu", 64) }
func BenchmarkModelLAMMPS(b *testing.B)     { benchModel(b, NewLAMMPS(), "google-gke-cpu", 256) }
func BenchmarkModelKripke(b *testing.B)     { benchModel(b, NewKripke(), "aws-parallelcluster-cpu", 256) }
func BenchmarkModelMiniFE(b *testing.B)     { benchModel(b, NewMiniFE(), "azure-aks-gpu", 16) }
func BenchmarkModelMTGEMM(b *testing.B)     { benchModel(b, NewMTGEMM(), "google-gke-gpu", 32) }
func BenchmarkModelMixbench(b *testing.B)   { benchModel(b, NewMixbench(), "azure-aks-gpu", 1) }
func BenchmarkModelOSU(b *testing.B)        { benchModel(b, NewOSU(), "azure-cyclecloud-cpu", 256) }
func BenchmarkModelSingleNode(b *testing.B) { benchModel(b, NewSingleNode(), "onprem-a-cpu", 1) }
func BenchmarkModelStream(b *testing.B)     { benchModel(b, NewStream(), "google-gke-cpu", 64) }
func BenchmarkModelQuicksilver(b *testing.B) {
	benchModel(b, NewQuicksilver(), "aws-parallelcluster-cpu", 256)
}

func BenchmarkStudyEnvironments(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := StudyEnvironments(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECCAuditFleet(b *testing.B) {
	spec, err := EnvByKey("azure-aks-gpu")
	if err != nil {
		b.Fatal(err)
	}
	m := NewMixbench()
	rng := sim.NewStream(1, "bench/ecc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ECCAudit(spec.Env, 256, rng)
	}
}

func BenchmarkCollectInventory(b *testing.B) {
	it := cloud.InstanceType{Name: "HB96rs v3", Provider: cloud.Azure, Cores: 96, ClockGHz: 3.5}
	n := &cloud.Node{ID: "n", Type: &it, VisibleCores: 96, Healthy: true}
	rng := sim.NewStream(1, "bench/inv")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Collect(n, rng)
	}
}
