package cloud

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudhpc/internal/sim"
	"cloudhpc/internal/trace"
)

// harness builds the full cloud stack for tests.
func harness(seed uint64) (*sim.Simulation, *trace.Log, *Meter, *QuotaManager, *Provisioner, *Catalog) {
	s := sim.New(seed)
	log := trace.NewLog()
	meter := NewMeter(s, log)
	quota := NewQuotaManager(s, log)
	placement := NewPlacementService(s, log)
	prov := NewProvisioner(s, log, meter, quota, placement)
	return s, log, meter, quota, prov, NewCatalog()
}

func TestProvisionHappyPathGKE(t *testing.T) {
	t.Parallel()
	_, _, _, quota, prov, cat := harness(1)
	it, _ := cat.Lookup(Google, "c2d-standard-112")
	quota.Request(Google, CPU, 256)
	c, err := prov.Provision(ProvisionRequest{Env: "google-gke-cpu", Type: it, Nodes: 64, Kubernetes: true})
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if c.Size() != 64 {
		t.Fatalf("size = %d, want 64", c.Size())
	}
	if !c.Placement.Full() {
		t.Fatalf("64-node GKE cluster should get full COMPACT placement")
	}
	if c.TotalCores() != 64*56 {
		t.Fatalf("TotalCores = %d, want %d", c.TotalCores(), 64*56)
	}
}

func TestProvisionWithoutQuotaFails(t *testing.T) {
	t.Parallel()
	_, _, _, _, prov, cat := harness(1)
	it, _ := cat.Lookup(Google, "c2d-standard-112")
	_, err := prov.Provision(ProvisionRequest{Env: "google-gke-cpu", Type: it, Nodes: 8, Kubernetes: true})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
}

func TestAWSGPUReservationWindow(t *testing.T) {
	t.Parallel()
	s, _, _, quota, prov, cat := harness(1)
	it, _ := cat.Lookup(AWS, "p3dn.24xlarge")
	quota.Request(AWS, GPU, 32)
	// Before the capacity block: pending.
	_, err := prov.Provision(ProvisionRequest{Env: "aws-eks-gpu", Type: it, Nodes: 32, Kubernetes: true})
	if !errors.Is(err, ErrReservationPending) {
		t.Fatalf("err = %v, want ErrReservationPending before window", err)
	}
	// Inside the 48h block (day 21+): succeeds.
	s.Clock.AdvanceTo(21*24*time.Hour + time.Hour)
	c, err := prov.Provision(ProvisionRequest{Env: "aws-eks-gpu", Type: it, Nodes: 32, Kubernetes: true})
	if err != nil {
		t.Fatalf("Provision inside window: %v", err)
	}
	if c.Size() != 32 {
		t.Fatalf("size = %d, want 32", c.Size())
	}
	// After the block closes: pending again.
	s.Clock.AdvanceTo(24 * 24 * time.Hour)
	if _, err := prov.Provision(ProvisionRequest{Env: "aws-eks-gpu", Type: it, Nodes: 32, Kubernetes: true}); !errors.Is(err, ErrReservationPending) {
		t.Fatalf("err = %v, want ErrReservationPending after window", err)
	}
}

func TestEKSPlacementGroupBugChargesAndRecovers(t *testing.T) {
	t.Parallel()
	s, log, meter, quota, prov, cat := harness(1)
	it, _ := cat.Lookup(AWS, "p3dn.24xlarge")
	quota.Request(AWS, GPU, 32)
	s.Clock.AdvanceTo(21*24*time.Hour + time.Hour)
	before := meter.Spend(AWS)
	c, err := prov.Provision(ProvisionRequest{Env: "aws-eks-gpu", Type: it, Nodes: 32, Kubernetes: true})
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if c.Size() != 32 {
		t.Fatalf("cluster should eventually be full size")
	}
	if meter.Spend(AWS) <= before {
		t.Fatalf("the placement group bug must cost money")
	}
	found := false
	for _, e := range log.ByEnv("aws-eks-gpu") {
		if e.Severity == trace.Blocking && strings.Contains(e.Msg, "placement group") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a blocking placement-group event in the trace")
	}
}

func TestEKS256StuckProvisioningOnRecreation(t *testing.T) {
	t.Parallel()
	_, log, meter, quota, prov, cat := harness(1)
	it, _ := cat.Lookup(AWS, "Hpc6a")
	quota.Request(AWS, CPU, 256)
	// First bring-up of the study size works cleanly.
	c1, err := prov.Provision(ProvisionRequest{Env: "aws-eks-cpu", Type: it, Nodes: 256, Kubernetes: true})
	if err != nil || c1.Size() != 256 {
		t.Fatalf("first 256-node bring-up should work: %v", err)
	}
	before := meter.Spend(AWS)
	// Recreating it (§4.1) stalls and wastes ~$2.2k waiting.
	c2, err := prov.Provision(ProvisionRequest{Env: "aws-eks-cpu", Type: it, Nodes: 256, Kubernetes: true})
	if err != nil || c2.Size() != 256 {
		t.Fatalf("recreation eventually completes: %v", err)
	}
	waste := meter.Spend(AWS) - before
	if waste < 1500 || waste > 4000 {
		t.Fatalf("stuck recreation waste = $%.0f, want ~$2.2k", waste)
	}
	var sawStall bool
	for _, e := range log.ByEnv("aws-eks-cpu") {
		if strings.Contains(e.Msg, "never provisioned") {
			sawStall = true
		}
	}
	if !sawStall {
		t.Fatalf("expected stall event in trace")
	}
}

func TestSupermarketFishDeterministic(t *testing.T) {
	t.Parallel()
	_, _, _, quota, prov, cat := harness(1)
	it, _ := cat.Lookup(Azure, "HB96rs v3")
	quota.Request(Azure, CPU, 512)
	prov.FishEveryN = 100
	var fish int
	for _, n := range []int{128, 128} {
		c, err := prov.Provision(ProvisionRequest{Env: "azure-aks-cpu", Type: it, Nodes: n, Kubernetes: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, node := range c.Nodes {
			if node.DefectiveCPU() {
				fish++
			}
		}
	}
	if fish != 2 {
		t.Fatalf("fish injection: got %d anomalous nodes in 256 bring-ups with N=100, want 2", fish)
	}
}

func TestAzureGPUDefectNeedsSpareQuota(t *testing.T) {
	t.Parallel()
	// Without spare quota, the sticky 7/8-GPU node kills the bring-up.
	_, _, _, quota, prov, cat := harness(3)
	it, _ := cat.Lookup(Azure, "ND40rs v2")
	quota.Request(Azure, GPU, 33)
	prov.AzureGPUDefectProb = 1.0
	_, err := prov.Provision(ProvisionRequest{Env: "azure-aks-gpu", Type: it, Nodes: 32, Kubernetes: true})
	if !errors.Is(err, ErrProvisionFailed) {
		t.Fatalf("err = %v, want ErrProvisionFailed without spare quota", err)
	}
	// With spare quota (the study asked for 33 nodes), recovery works.
	c, err := prov.Provision(ProvisionRequest{Env: "azure-aks-gpu", Type: it, Nodes: 32, Kubernetes: true, AllowSpareNode: true})
	if err != nil {
		t.Fatalf("Provision with spare: %v", err)
	}
	for _, n := range c.Nodes {
		if n.DefectiveGPU() {
			t.Fatalf("defective node should have been replaced")
		}
	}
}

func TestAzureECCInconsistency(t *testing.T) {
	t.Parallel()
	_, _, _, quota, prov, cat := harness(7)
	quota.Request(Azure, GPU, 33)
	quota.Request(Google, GPU, 32)
	itAz, _ := cat.Lookup(Azure, "ND40rs v2")
	itG, _ := cat.Lookup(Google, "n1-standard-32")
	az, err := prov.Provision(ProvisionRequest{Env: "azure-aks-gpu", Type: itAz, Nodes: 32, Kubernetes: true, AllowSpareNode: true})
	if err != nil {
		t.Fatalf("azure: %v", err)
	}
	g, err := prov.Provision(ProvisionRequest{Env: "google-gke-gpu", Type: itG, Nodes: 32, Kubernetes: true})
	if err != nil {
		t.Fatalf("google: %v", err)
	}
	offAz := 0
	for _, n := range az.Nodes {
		if !n.ECCEnabled {
			offAz++
		}
	}
	if offAz == 0 {
		t.Fatalf("Azure fleet should contain ECC-off nodes (paper: 12.5–25%% off)")
	}
	for _, n := range g.Nodes {
		if !n.ECCEnabled {
			t.Fatalf("non-Azure clouds must have ECC on everywhere")
		}
	}
}

func TestTeardownChargesLifetimeOnce(t *testing.T) {
	t.Parallel()
	s, _, meter, quota, prov, cat := harness(1)
	it, _ := cat.Lookup(Google, "c2d-standard-112")
	quota.Request(Google, CPU, 64)
	c, err := prov.Provision(ProvisionRequest{Env: "google-ce-cpu", Type: it, Nodes: 64})
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	s.Clock.Advance(2 * time.Hour)
	before := meter.Spend(Google)
	if err := prov.Teardown(c); err != nil {
		t.Fatalf("Teardown: %v", err)
	}
	charged := meter.Spend(Google) - before
	want := 64 * 2.0 * 5.06 // approximately: 64 nodes × ≥2h × $5.06
	if charged < want {
		t.Fatalf("lifetime charge = $%.2f, want ≥ $%.2f", charged, want)
	}
	if err := prov.Teardown(c); err == nil {
		t.Fatalf("double teardown must error (double billing)")
	}
}

func TestProvisionRejectsZeroNodes(t *testing.T) {
	t.Parallel()
	_, _, _, _, prov, cat := harness(1)
	it, _ := cat.Lookup(AWS, "Hpc6a")
	if _, err := prov.Provision(ProvisionRequest{Env: "x", Type: it, Nodes: 0}); err == nil {
		t.Fatalf("expected error for zero nodes")
	}
}

func TestBootLatencyGrowsWithSize(t *testing.T) {
	t.Parallel()
	s, _, _, quota, prov, cat := harness(1)
	it, _ := cat.Lookup(Google, "c2d-standard-112")
	quota.Request(Google, CPU, 256)
	start := s.Now()
	if _, err := prov.Provision(ProvisionRequest{Env: "g32", Type: it, Nodes: 32}); err != nil {
		t.Fatal(err)
	}
	small := s.Now() - start
	start = s.Now()
	if _, err := prov.Provision(ProvisionRequest{Env: "g256", Type: it, Nodes: 256}); err != nil {
		t.Fatal(err)
	}
	large := s.Now() - start
	if large <= small {
		t.Fatalf("256-node bring-up (%v) should take longer than 32-node (%v)", large, small)
	}
}

// TestProvisionNodeIDs pins the node ID text ("%s-node-%04d" of the
// provisioner's counter), also across a cluster whose IDs change width.
func TestProvisionNodeIDs(t *testing.T) {
	t.Parallel()
	_, _, _, quota, prov, cat := harness(1)
	it, _ := cat.Lookup(Google, "c2d-standard-112")
	quota.Request(Google, CPU, 256)
	for _, start := range []int{0, 9990} {
		prov.counter = start
		c, err := prov.Provision(ProvisionRequest{Env: "google-gke-cpu", Type: it, Nodes: 32, Kubernetes: true})
		if err != nil {
			t.Fatal(err)
		}
		// The cluster name takes the first counter value.
		for i, n := range c.Nodes {
			if want := fmt.Sprintf("google-gke-cpu-node-%04d", start+2+i); n.ID != want {
				t.Fatalf("node %d ID = %q, want %q", i, n.ID, want)
			}
		}
	}
}

// TestProvisionAllocs pins that a cluster's nodes cost a fixed number of
// allocations however many there are: they share one slab, and their IDs
// one string. Each measured run includes building the provisioner.
func TestProvisionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	const maxGap = 8
	provision := func(nodes int) float64 {
		return testing.AllocsPerRun(20, func() {
			_, _, _, quota, prov, cat := harness(1)
			it, _ := cat.Lookup(Google, "c2d-standard-112")
			quota.Request(Google, CPU, 256)
			if _, err := prov.Provision(ProvisionRequest{Env: "google-gke-cpu", Type: it, Nodes: nodes, Kubernetes: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := provision(32), provision(256)
	t.Logf("Provision allocates %.0f at 32 nodes and %.0f at 256", small, large)
	if large-small > maxGap {
		t.Errorf("a 256-node Provision allocates %.0f more than a 32-node one, want <= %d", large-small, maxGap)
	}
}
