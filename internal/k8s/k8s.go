// Package k8s simulates the managed Kubernetes services of the study —
// EKS (v1.27), AKS (v1.29.7), and GKE (v1.29.7) — at the level the paper
// engages with them: node pools over provisioned instances, daemonsets
// that install networking drivers (EFA plugin, the team's custom AKS
// InfiniBand installer), the VPC CNI and its prefix-exhaustion failure at
// 256 nodes, and the Flux Operator deploying a Flux MiniCluster.
package k8s

import (
	"errors"
	"fmt"
	"time"

	"cloudhpc/internal/cloud"
	"cloudhpc/internal/sched"
	"cloudhpc/internal/sim"
	"cloudhpc/internal/trace"
)

// Service identifies a managed Kubernetes offering.
type Service string

const (
	EKS Service = "EKS" // Amazon Elastic Kubernetes Service
	AKS Service = "AKS" // Azure Kubernetes Service
	GKE Service = "GKE" // Google Kubernetes Engine
)

// Version returns the control-plane version used in the study (Table: EKS
// v1.27, AKS v1.29.7, GKE v1.29.7).
func (s Service) Version() string {
	switch s {
	case EKS:
		return "v1.27"
	case AKS, GKE:
		return "v1.29.7"
	default:
		return "unknown"
	}
}

// ServiceFor maps a provider to its Kubernetes service.
func ServiceFor(p cloud.Provider) (Service, error) {
	switch p {
	case cloud.AWS:
		return EKS, nil
	case cloud.Azure:
		return AKS, nil
	case cloud.Google:
		return GKE, nil
	default:
		return "", fmt.Errorf("k8s: provider %q has no managed Kubernetes service", p)
	}
}

// Errors surfaced by cluster operations.
var (
	ErrNetworkingNotReady = errors.New("k8s: high-performance networking not installed")
	ErrCNIPrefixExhausted = errors.New("k8s: CNI ran out of network prefixes")
)

// DaemonSet is a per-node rollout. The study used daemonsets for the EFA
// device plugin, a custom AKS InfiniBand installer, and the patched VPC CNI.
type DaemonSet struct {
	Name string
	// InstallTime is the per-rollout time cost (paid once; rollouts are
	// parallel across nodes).
	InstallTime time.Duration
	// Custom marks team-developed daemonsets — counted as development
	// effort rather than routine setup.
	Custom bool
	// Provides names the capability the daemonset delivers, e.g.
	// "efa", "infiniband", "cni-prefix-delegation".
	Provides string
}

// Standard daemonsets of the study.
var (
	// EFADevicePlugin exposes the Elastic Fabric Adapter to pods on EKS.
	EFADevicePlugin = DaemonSet{Name: "aws-efa-k8s-device-plugin", InstallTime: 3 * time.Minute, Provides: "efa"}
	// AKSInfiniBandInstall is the custom daemonset the team developed to
	// install InfiniBand drivers on AKS — there were no comprehensive
	// instructions, hence a development-effort event.
	AKSInfiniBandInstall = DaemonSet{Name: "aks-infiniband-install", InstallTime: 8 * time.Minute, Custom: true, Provides: "infiniband"}
	// CNIPrefixDelegation is the patched VPC CNI daemonset enabling prefix
	// delegation, needed at 256 nodes on EKS.
	CNIPrefixDelegation = DaemonSet{Name: "aws-vpc-cni-prefix-delegation", InstallTime: 4 * time.Minute, Custom: true, Provides: "cni-prefix-delegation"}
	// NVIDIADevicePlugin exposes GPUs to pods; stock on all three services.
	NVIDIADevicePlugin = DaemonSet{Name: "nvidia-device-plugin", InstallTime: 2 * time.Minute, Provides: "gpu"}
)

// Cluster is a managed Kubernetes cluster over provisioned nodes.
type Cluster struct {
	Service Service
	Nodes   *cloud.Cluster

	sim *sim.Simulation
	log *trace.Log
	env string

	daemonsets map[string]DaemonSet
	miniOnce   bool
}

// NewCluster wraps a provisioned node pool in a Kubernetes control plane.
func NewCluster(s *sim.Simulation, log *trace.Log, env string, svc Service, nodes *cloud.Cluster) *Cluster {
	c := &Cluster{
		Service: svc, Nodes: nodes, sim: s, log: log, env: env,
		daemonsets: make(map[string]DaemonSet),
	}
	log.Addf(s.Now(), env, trace.Setup, trace.Routine,
		"%s %s control plane ready over %d nodes", svc, svc.Version(), nodes.Size())
	return c
}

// Apply rolls out a daemonset across all nodes. Custom daemonsets log a
// development-effort event (they had to be written first).
func (c *Cluster) Apply(ds DaemonSet) {
	c.sim.Clock.Advance(ds.InstallTime)
	c.daemonsets[ds.Provides] = ds
	sev := trace.Routine
	cat := trace.Setup
	if ds.Custom {
		sev = trace.Blocking
		cat = trace.Development
	}
	c.log.Addf(c.sim.Now(), c.env, cat, sev, "daemonset %s rolled out (%s)", ds.Name, ds.Provides)
}

// Has reports whether a capability has been installed.
func (c *Cluster) Has(capability string) bool {
	_, ok := c.daemonsets[capability]
	return ok
}

// networkingReady checks the per-provider fast-path requirement.
func (c *Cluster) networkingReady() error {
	switch c.Service {
	case EKS:
		if !c.Has("efa") {
			return fmt.Errorf("%w: EKS needs the EFA device plugin", ErrNetworkingNotReady)
		}
	case AKS:
		if !c.Has("infiniband") {
			return fmt.Errorf("%w: AKS needs the custom InfiniBand daemonset", ErrNetworkingNotReady)
		}
	case GKE:
		// GKE needed no special drivers in the study.
	}
	return nil
}

// checkCNI models the EKS CNI prefix exhaustion at 256 nodes: without the
// prefix-delegation patch, pod networking cannot be allocated.
func (c *Cluster) checkCNI() error {
	if c.Service == EKS && c.Nodes.Size() >= 256 && !c.Has("cni-prefix-delegation") {
		c.log.Addf(c.sim.Now(), c.env, trace.Development, trace.Blocking,
			"ran out of network prefixes for the CNI at %d nodes; patch prefix delegation", c.Nodes.Size())
		return ErrCNIPrefixExhausted
	}
	return nil
}

// DeployFluxOperator installs the Flux Operator, deploys a Flux
// MiniCluster over every node — the scheduling layer of all the study's
// Kubernetes environments — and returns its Flux queue. It models what
// the study observed of a deploy: the prerequisites (high-performance
// networking, CNI prefixes at 256 nodes on EKS, the NVIDIA device plugin
// on GPU clusters), the 4-minute install and the manual shell-in.
// Nothing here walks the nodes, so a deploy costs the same at any
// cluster size.
func (c *Cluster) DeployFluxOperator() (*sched.Scheduler, error) {
	if err := c.networkingReady(); err != nil {
		c.log.Addf(c.sim.Now(), c.env, trace.Development, trace.Unexpected, "flux operator blocked: %v", err)
		return nil, err
	}
	if err := c.checkCNI(); err != nil {
		return nil, err
	}
	if c.Nodes.Type.GPUs > 0 && !c.Has("gpu") {
		return nil, fmt.Errorf("%w: GPU cluster needs the NVIDIA device plugin", ErrNetworkingNotReady)
	}
	c.sim.Clock.Advance(4 * time.Minute) // operator install + MiniCluster pods

	if !c.miniOnce {
		// Each deployment requires shelling in to interact with the Flux
		// queue — the recurring manual effort behind the "medium" manual-
		// intervention scores of all Kubernetes environments.
		c.log.Addf(c.sim.Now(), c.env, trace.Manual, trace.Unexpected,
			"deployed MiniCluster (%d brokers); shelled in to interact with the Flux queue", c.Nodes.Size())
		c.miniOnce = true
	} else {
		c.log.Addf(c.sim.Now(), c.env, trace.Manual, trace.Routine, "redeployed MiniCluster")
	}
	return sched.NewFlux(c.sim, c.log, c.env, c.Nodes.Size()), nil
}
