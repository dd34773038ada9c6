package k8s

import (
	"errors"
	"fmt"
	"testing"

	"cloudhpc/internal/cloud"
	"cloudhpc/internal/sim"
	"cloudhpc/internal/trace"
)

func nodesOf(p cloud.Provider, n, gpus int) *cloud.Cluster {
	it := cloud.InstanceType{Name: "test", Provider: p, Cores: 96, GPUs: gpus}
	c := &cloud.Cluster{Type: it}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, &cloud.Node{
			ID:   fmt.Sprintf("%s-node-%04d", p, i),
			Type: &c.Type, VisibleCores: it.Cores, VisibleGPUs: gpus, Healthy: true,
		})
	}
	return c
}

func newK8s(t *testing.T, p cloud.Provider, n, gpus int) (*sim.Simulation, *trace.Log, *Cluster) {
	t.Helper()
	s := sim.New(1)
	log := trace.NewLog()
	svc, err := ServiceFor(p)
	if err != nil {
		t.Fatal(err)
	}
	return s, log, NewCluster(s, log, "test-env", svc, nodesOf(p, n, gpus))
}

func TestServiceVersions(t *testing.T) {
	if EKS.Version() != "v1.27" {
		t.Fatalf("EKS version = %s", EKS.Version())
	}
	if AKS.Version() != "v1.29.7" || GKE.Version() != "v1.29.7" {
		t.Fatalf("AKS/GKE versions wrong")
	}
}

func TestServiceForOnPremFails(t *testing.T) {
	if _, err := ServiceFor(cloud.OnPrem); err == nil {
		t.Fatalf("on-prem has no managed Kubernetes")
	}
}

func TestEKSNeedsEFAPlugin(t *testing.T) {
	_, _, c := newK8s(t, cloud.AWS, 64, 0)
	if _, err := c.DeployFluxOperator(); !errors.Is(err, ErrNetworkingNotReady) {
		t.Fatalf("err = %v, want ErrNetworkingNotReady", err)
	}
	c.Apply(EFADevicePlugin)
	if _, err := c.DeployFluxOperator(); err != nil {
		t.Fatalf("after EFA plugin: %v", err)
	}
}

func TestAKSNeedsCustomInfiniBandDaemonset(t *testing.T) {
	_, log, c := newK8s(t, cloud.Azure, 32, 0)
	if _, err := c.DeployFluxOperator(); !errors.Is(err, ErrNetworkingNotReady) {
		t.Fatalf("err = %v, want ErrNetworkingNotReady", err)
	}
	c.Apply(AKSInfiniBandInstall)
	if _, err := c.DeployFluxOperator(); err != nil {
		t.Fatalf("after daemonset: %v", err)
	}
	// The custom daemonset must register as development effort.
	dev := log.Filter(func(e trace.Event) bool {
		return e.Category == trace.Development && e.Severity == trace.Blocking
	})
	if len(dev) == 0 {
		t.Fatalf("custom daemonset should log blocking development effort")
	}
}

func TestGKENeedsNothingSpecial(t *testing.T) {
	_, _, c := newK8s(t, cloud.Google, 64, 0)
	if _, err := c.DeployFluxOperator(); err != nil {
		t.Fatalf("GKE should work out of the box: %v", err)
	}
}

func TestEKSCNIPrefixExhaustionAt256(t *testing.T) {
	_, _, c := newK8s(t, cloud.AWS, 256, 0)
	c.Apply(EFADevicePlugin)
	if _, err := c.DeployFluxOperator(); !errors.Is(err, ErrCNIPrefixExhausted) {
		t.Fatalf("err = %v, want ErrCNIPrefixExhausted at 256 nodes", err)
	}
	c.Apply(CNIPrefixDelegation)
	if _, err := c.DeployFluxOperator(); err != nil {
		t.Fatalf("after prefix delegation patch: %v", err)
	}
}

func TestEKS128NoCNIIssue(t *testing.T) {
	_, _, c := newK8s(t, cloud.AWS, 128, 0)
	c.Apply(EFADevicePlugin)
	if _, err := c.DeployFluxOperator(); err != nil {
		t.Fatalf("128 nodes should not exhaust prefixes: %v", err)
	}
}

func TestGPUClusterNeedsDevicePlugin(t *testing.T) {
	_, _, c := newK8s(t, cloud.Google, 32, 8)
	if _, err := c.DeployFluxOperator(); !errors.Is(err, ErrNetworkingNotReady) {
		t.Fatalf("GPU cluster without device plugin must fail: %v", err)
	}
	c.Apply(NVIDIADevicePlugin)
	sc, err := c.DeployFluxOperator()
	if err != nil {
		t.Fatalf("after device plugin: %v", err)
	}
	if sc.FreeNodes() != 32 {
		t.Fatalf("MiniCluster size = %d, want 32", sc.FreeNodes())
	}
}

func TestMiniClusterSchedulerIsFlux(t *testing.T) {
	_, _, c := newK8s(t, cloud.Google, 16, 0)
	sc, err := c.DeployFluxOperator()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Kind() != "Flux" {
		t.Fatalf("MiniCluster scheduler = %s, want Flux", sc.Kind())
	}
}

func TestManualShellInLogged(t *testing.T) {
	_, log, c := newK8s(t, cloud.Google, 16, 0)
	if _, err := c.DeployFluxOperator(); err != nil {
		t.Fatal(err)
	}
	manual := log.Filter(func(e trace.Event) bool { return e.Category == trace.Manual })
	if len(manual) == 0 {
		t.Fatalf("MiniCluster deployment requires shelling in (manual effort)")
	}
}

// TestDeployFluxOperatorAllocs pins that a deploy costs the same at
// every cluster size: nothing on the deploy path walks the nodes.
func TestDeployFluxOperatorAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are off under -race")
	}
	const ceiling = 8
	redeploy := func(nodes int) float64 {
		_, _, c := newK8s(t, cloud.Google, nodes, 0)
		if _, err := c.DeployFluxOperator(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := c.DeployFluxOperator(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := redeploy(2), redeploy(256)
	if small != large {
		t.Errorf("a redeploy allocates %.0f at 2 nodes but %.0f at 256", small, large)
	}
	if large > ceiling {
		t.Errorf("a redeploy allocates %.0f, want <= %d", large, ceiling)
	}
}
