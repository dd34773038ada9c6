package core

import (
	"context"
	"sync"
	"testing"

	"cloudhpc/internal/apps"
	"cloudhpc/internal/cloud"
	"cloudhpc/internal/trace"
	"cloudhpc/internal/usability"
)

// newTestStudy is how in-package tests run a study with what Runner does
// not expose (Meter budgets, the resolved spec, the merged study clock):
// it resolves spec and builds the study a Runner would compute, with
// store rs attached (nil for a store-free run). Callers adjust it and run
// it once with runSession, outside the study store.
func newTestStudy(t *testing.T, spec *StudySpec, rs *ResultStore) (*study, *ResolvedSpec) {
	t.Helper()
	r, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	st := newStudy(r)
	st.Store = rs
	return st, r
}

// fullStudyOnce computes the default seed-2025 dataset once per test
// binary for fullStudy.
var fullStudyOnce = sync.OnceValues(func() (*Results, error) {
	return (&Runner{}).Run(context.Background(), DefaultSpec(2025))
})

// fullStudy is the default seed-2025 dataset, shared read-only by the
// package's tests: a Runner keeps no dataset between runs, and the full
// study is too slow to compute once per test.
func fullStudy(t *testing.T) *Results {
	t.Helper()
	res, err := fullStudyOnce()
	if err != nil {
		t.Fatalf("full study: %v", err)
	}
	return res
}

func TestStudyRunsAllDeployableEnvironments(t *testing.T) {
	res := fullStudy(t)
	seen := map[string]bool{}
	for _, rec := range res.Runs {
		seen[rec.EnvKey] = true
	}
	for _, spec := range apps.Deployable(res.Envs) {
		if !seen[spec.Key] {
			t.Errorf("no runs recorded for %s", spec.Key)
		}
	}
	if seen["aws-parallelcluster-gpu"] {
		t.Errorf("the undeployable environment must not produce runs")
	}
}

func TestStudyDatasetSize(t *testing.T) {
	res := fullStudy(t)
	// 13 environments × 11 apps × 4 scales × 5 iterations, minus the EKS
	// GPU size cap, the single AKS-256 LAMMPS run, and unbuildable
	// containers — thousands of records either way.
	if len(res.Runs) < 2000 {
		t.Fatalf("dataset has %d runs, want thousands", len(res.Runs))
	}
}

// wantTable3 is the paper's Table 3, row for row.
var wantTable3 = map[string][4]usability.Effort{
	//                              setup               dev                 appsetup            manual
	"aws-parallelcluster-cpu":  {usability.Medium, usability.Low, usability.Low, usability.Low},
	"azure-cyclecloud-cpu":     {usability.High, usability.Low, usability.High, usability.High},
	"google-computeengine-cpu": {usability.Medium, usability.Medium, usability.Low, usability.Low},
	"azure-cyclecloud-gpu":     {usability.High, usability.Low, usability.High, usability.High},
	"google-computeengine-gpu": {usability.Medium, usability.Medium, usability.Low, usability.Low},
	"aws-eks-cpu":              {usability.Low, usability.High, usability.Low, usability.Medium},
	"azure-aks-cpu":            {usability.Medium, usability.High, usability.High, usability.High},
	"google-gke-cpu":           {usability.Low, usability.Low, usability.Low, usability.Medium},
	"aws-eks-gpu":              {usability.High, usability.High, usability.Low, usability.Medium},
	"azure-aks-gpu":            {usability.Medium, usability.High, usability.High, usability.Medium},
	"google-gke-gpu":           {usability.Low, usability.Low, usability.Low, usability.Medium},
	"onprem-b-gpu":             {usability.Low, usability.Low, usability.High, usability.Medium},
	"onprem-a-cpu":             {usability.Low, usability.Low, usability.High, usability.Medium},
}

func TestTable3MatchesPaper(t *testing.T) {
	res := fullStudy(t)
	got := map[string][4]usability.Effort{}
	for _, a := range res.Table3() {
		got[a.Env] = [4]usability.Effort{
			a.Scores[trace.Setup], a.Scores[trace.Development],
			a.Scores[trace.AppSetup], a.Scores[trace.Manual],
		}
	}
	if len(got) != 13 {
		t.Fatalf("Table 3 has %d rows, want 13", len(got))
	}
	for env, want := range wantTable3 {
		g, ok := got[env]
		if !ok {
			t.Errorf("missing Table 3 row for %s", env)
			continue
		}
		if g != want {
			t.Errorf("%s: got %v/%v/%v/%v, want %v/%v/%v/%v", env,
				g[0], g[1], g[2], g[3], want[0], want[1], want[2], want[3])
		}
	}
}

func TestTable4Shape(t *testing.T) {
	res := fullStudy(t)
	rows := res.Table4()
	if len(rows) != 11 {
		t.Fatalf("Table 4 has %d rows, want 11 (13 deployable minus 2 on-prem)", len(rows))
	}
	// Ascending order.
	for i := 1; i < len(rows); i++ {
		if rows[i].TotalUSD < rows[i-1].TotalUSD {
			t.Fatalf("Table 4 not ascending at %d: %+v", i, rows)
		}
	}
	byKey := map[string]CostRow{}
	var maxGPU, minCPU float64
	minCPU = 1e18
	for _, r := range rows {
		byKey[r.EnvKey] = r
		if r.Acc == cloud.GPU && r.EnvKey != "google-computeengine-gpu" && r.TotalUSD > maxGPU {
			maxGPU = r.TotalUSD
		}
		if r.Acc == cloud.CPU && r.TotalUSD < minCPU {
			minCPU = r.TotalUSD
		}
	}
	// §4.2: "the GPU runs were significantly cheaper despite the more
	// expensive instance type" (CE GPU was credit-funded and is excused).
	if maxGPU >= minCPU {
		t.Fatalf("GPU AMG runs should cost less than CPU runs: maxGPU=%.2f minCPU=%.2f", maxGPU, minCPU)
	}
	// Google's CPU environments were the most expensive rows.
	last := rows[len(rows)-1]
	if last.EnvKey != "google-computeengine-cpu" && last.EnvKey != "google-gke-cpu" {
		t.Fatalf("most expensive row should be a Google CPU environment, got %s", last.EnvKey)
	}
	// EKS CPU landed around $264 in the paper; stay in the ballpark.
	if eks := byKey["aws-eks-cpu"].TotalUSD; eks < 130 || eks > 530 {
		t.Fatalf("EKS CPU AMG cost = $%.2f, want paper-ballpark (~$264)", eks)
	}
}

func TestFigure2AMGShapes(t *testing.T) {
	res := fullStudy(t)
	cpuFig, err := res.FigureFor("amg2023", cloud.CPU)
	if err != nil {
		t.Fatal(err)
	}
	best, err := cpuFig.BestAt(256)
	if err != nil {
		t.Fatal(err)
	}
	if best != "onprem-a-cpu" {
		t.Fatalf("CPU AMG at 256 nodes: best = %s, want onprem-a-cpu", best)
	}
	gpuFig, err := res.FigureFor("amg2023", cloud.GPU)
	if err != nil {
		t.Fatal(err)
	}
	// B produced some of the lowest FOMs: it must never be best.
	for _, gpus := range []float64{32, 64, 128} {
		if best, err := gpuFig.BestAt(gpus); err == nil && best == "onprem-b-gpu" {
			t.Fatalf("GPU AMG at %v GPUs: on-prem B should not win", gpus)
		}
	}
}

func TestFigure3LaghosOnlySmallCloudSizes(t *testing.T) {
	res := fullStudy(t)
	fig, err := res.FigureFor("laghos", cloud.CPU)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		if s.Label == "onprem-a-cpu" {
			continue
		}
		if s.Label == "aws-parallelcluster-cpu" && len(s.Points) > 0 {
			t.Fatalf("ParallelCluster Laghos never completed, has %d points", len(s.Points))
		}
		for _, p := range s.Points {
			if p.X > 64 {
				t.Fatalf("%s has a Laghos point at %v nodes; cloud runs stop at 64", s.Label, p.X)
			}
		}
	}
	// On-prem: order of magnitude higher at 32 nodes.
	op, ok1 := fig.Get("onprem-a-cpu").At(32)
	cl, ok2 := fig.Get("azure-aks-cpu").At(32)
	if !ok1 || !ok2 || op.Mean < 7*cl.Mean {
		t.Fatalf("on-prem Laghos should be ~10× cloud: %v vs %v", op.Mean, cl.Mean)
	}
}

func TestFigure1KripkeOrdering(t *testing.T) {
	res := fullStudy(t)
	fig, err := res.FigureFor("kripke", cloud.CPU)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range []float64{64, 128, 256} {
		best, err := fig.BestAt(nodes)
		if err != nil {
			t.Fatal(err)
		}
		if best != "aws-parallelcluster-cpu" {
			t.Fatalf("Kripke at %v nodes: best = %s, want aws-parallelcluster-cpu", nodes, best)
		}
	}
}

func TestECCSurveyMatchesPaper(t *testing.T) {
	res := fullStudy(t)
	for env, on := range res.ECCOn {
		spec, _ := apps.EnvByKey(env)
		if spec.Provider == cloud.Azure {
			if on >= 1.0 || on < 0.5 {
				t.Errorf("%s: ECC-on = %.2f, want mixed (12.5–25%% off)", env, on)
			}
		} else if on != 1.0 {
			t.Errorf("%s: ECC-on = %.2f, want 1.0", env, on)
		}
	}
	if len(res.ECCOn) < 5 {
		t.Fatalf("ECC survey covered %d GPU environments, want ≥5", len(res.ECCOn))
	}
}

func TestSupermarketFishFound(t *testing.T) {
	res := fullStudy(t)
	if len(res.Findings) == 0 {
		t.Fatalf("the single-node audit should find the anomalous Azure node")
	}
	for _, f := range res.Findings {
		spec, err := apps.EnvByKey(findingEnv(res, f))
		if err == nil && spec.Provider != cloud.Azure {
			t.Fatalf("fish found outside Azure: %+v", f)
		}
	}
}

// findingEnv recovers the env key prefix of a finding's node ID.
func findingEnv(res *Results, f apps.Finding) string {
	for _, spec := range res.Envs {
		if len(f.NodeID) >= len(spec.Key) && f.NodeID[:len(spec.Key)] == spec.Key {
			return spec.Key
		}
	}
	return ""
}

func TestHookupPatterns(t *testing.T) {
	res := fullStudy(t)
	nodes, times := res.HookupSeries("azure-aks-cpu")
	if len(nodes) != 4 {
		t.Fatalf("AKS CPU hookup series: %v", nodes)
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("AKS CPU hookups should grow with scale: %v", times)
		}
	}
	_, gke := res.HookupSeries("google-gke-cpu")
	for _, d := range gke {
		if d.Seconds() > 20 {
			t.Fatalf("GKE hookups should be flat and small: %v", gke)
		}
	}
}

func TestStudyCostsPlausible(t *testing.T) {
	res := fullStudy(t)
	costs := res.StudyCosts()
	for p, usd := range costs {
		if usd <= 0 {
			t.Errorf("%s spend = $%.2f, want positive", p, usd)
		}
		if usd > BudgetPerCloudUSD {
			t.Errorf("%s spend $%.0f exceeded the $49k budget", p, usd)
		}
	}
	if res.Meter.Spend(cloud.OnPrem) != 0 {
		t.Errorf("on-prem must not bill")
	}
}

func TestFailureSummaryContainsKnownFailures(t *testing.T) {
	res := fullStudy(t)
	fails := res.FailureSummary()
	if fails["azure-aks-gpu"]["quicksilver"] == 0 {
		t.Errorf("Quicksilver GPU runs should fail")
	}
	if fails["aws-parallelcluster-cpu"]["laghos"] == 0 {
		t.Errorf("ParallelCluster Laghos should fail")
	}
	if fails["onprem-a-cpu"]["minife"] == 0 {
		t.Errorf("on-prem MiniFE output was lost")
	}
}

func TestRunsForFilter(t *testing.T) {
	res := fullStudy(t)
	all := res.RunsFor("", "lammps")
	if len(all) == 0 {
		t.Fatal("no lammps runs")
	}
	one := res.RunsFor("google-gke-cpu", "lammps")
	if len(one) != 4*Iterations {
		t.Fatalf("GKE lammps runs = %d, want %d", len(one), 4*Iterations)
	}
	aks256 := 0
	for _, r := range res.RunsFor("azure-aks-cpu", "lammps") {
		if r.Nodes == 256 {
			aks256++
		}
	}
	if aks256 != 1 {
		t.Fatalf("AKS-256 lammps runs = %d, want exactly 1", aks256)
	}
}

func TestDeterministicStudy(t *testing.T) {
	a, _ := newTestStudy(t, DefaultSpec(7), nil)
	resA, err := a.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newTestStudy(t, DefaultSpec(7), nil)
	resB, err := b.runSession(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Runs) != len(resB.Runs) {
		t.Fatalf("replays differ in run count: %d vs %d", len(resA.Runs), len(resB.Runs))
	}
	for i := range resA.Runs {
		if resA.Runs[i].FOM != resB.Runs[i].FOM {
			t.Fatalf("replay diverged at run %d", i)
		}
	}
}
