package k8s

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"cloudhpc/internal/flux"
)

// This file models the Flux Operator's custom resource (the MiniCluster
// CRD) and its reconciliation: given a size and a container image, the
// operator creates one broker pod per node, ranks them, and boots a
// nested Flux instance over the granted nodes (Sochat et al., "The Flux
// Operator", F1000Research 2024 — reference [86] of the paper).

// MiniClusterSpec is the CRD spec.
type MiniClusterSpec struct {
	Name  string
	Size  int    // broker pods = nodes
	Image string // container tag every rank runs
	// CoresPerPod/GPUsPerPod reserve node resources for the broker pod;
	// zero means "whole node" (resolved at reconcile time).
	CoresPerPod int
	GPUsPerPod  int
}

// MiniClusterPhase is the CRD status phase.
type MiniClusterPhase string

const (
	MiniClusterPending MiniClusterPhase = "Pending"
	MiniClusterReady   MiniClusterPhase = "Ready"
	MiniClusterFailed  MiniClusterPhase = "Failed"
)

// MiniClusterStatus is the CRD status.
type MiniClusterStatus struct {
	Phase        MiniClusterPhase
	ReadyBrokers int
	Message      string
}

// MiniClusterResource is the deployed custom resource.
type MiniClusterResource struct {
	Spec   MiniClusterSpec
	Status MiniClusterStatus
	// Brokers are the rank-ordered broker pods (rank 0 is the lead).
	Brokers []*Pod
	// Flux is the nested instance the brokers form.
	Flux *flux.Instance
}

// LeadBroker returns the rank-0 pod.
func (mc *MiniClusterResource) LeadBroker() *Pod {
	if len(mc.Brokers) == 0 {
		return nil
	}
	return mc.Brokers[0]
}

// Operator reconciles MiniCluster resources over a pod scheduler.
type Operator struct {
	sched *PodScheduler
	// root is the Flux view of the Kubernetes nodes the operator may use.
	root *flux.Instance
}

// ErrInsufficientNodes is returned when the spec asks for more brokers
// than the cluster has nodes.
var ErrInsufficientNodes = errors.New("k8s: MiniCluster size exceeds node count")

// NewOperator installs the operator on a cluster's pod scheduler. The
// socketsPerNode/coresPerSocket/gpusPerSocket describe node shape for the
// nested Flux resource graph.
func NewOperator(sched *PodScheduler, nodes, socketsPerNode, coresPerSocket, gpusPerSocket int) *Operator {
	graph := flux.NewCluster("k8s", nodes, socketsPerNode, coresPerSocket, gpusPerSocket)
	return &Operator{sched: sched, root: flux.NewInstance("k8s-root", graph)}
}

// freeNodes returns up to n node IDs with no MiniCluster broker yet,
// sorted for determinism.
func (op *Operator) freeNodes(n int) []string {
	taken := map[string]bool{}
	for _, p := range op.sched.Pods(map[string]string{"app": "flux-minicluster"}) {
		taken[p.Node] = true
	}
	var out []string
	for _, node := range op.sched.nodes {
		if !taken[node.ID] {
			out = append(out, node.ID)
		}
	}
	sort.Strings(out)
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Reconcile drives a MiniCluster resource toward Ready: allocate nodes
// from the Flux view, create rank-ordered broker pods, and boot the
// nested instance. Idempotent: a Ready resource reconciles to itself.
func (op *Operator) Reconcile(mc *MiniClusterResource) error {
	if mc.Status.Phase == MiniClusterReady {
		return nil
	}
	spec := mc.Spec
	if spec.Size <= 0 {
		mc.Status = MiniClusterStatus{Phase: MiniClusterFailed, Message: "size must be positive"}
		return fmt.Errorf("k8s: MiniCluster %q: non-positive size", spec.Name)
	}
	if spec.Size > len(op.sched.nodes) {
		mc.Status = MiniClusterStatus{Phase: MiniClusterFailed,
			Message: fmt.Sprintf("want %d nodes, have %d", spec.Size, len(op.sched.nodes))}
		return fmt.Errorf("%w: want %d, have %d", ErrInsufficientNodes, spec.Size, len(op.sched.nodes))
	}

	// Allocate whole nodes in the Flux view.
	cores := spec.CoresPerPod
	if cores == 0 && len(op.sched.nodes) > 0 {
		cores = op.sched.nodes[0].VisibleCores
	}
	gpus := spec.GPUsPerPod
	if gpus == 0 && len(op.sched.nodes) > 0 {
		gpus = op.sched.nodes[0].VisibleGPUs
	}
	_, alloc, err := op.root.Submit(flux.Jobspec{
		Name: spec.Name, NumSlots: spec.Size,
		CoresPerSlot: cores, GPUsPerSlot: gpus, NodeExclusive: true,
	})
	if err != nil {
		mc.Status = MiniClusterStatus{Phase: MiniClusterPending, Message: err.Error()}
		return err
	}

	// One broker pod per granted node, rank ordered. Brokers are pinned
	// with anti-affinity (one per node) and request only a sliver of the
	// node — exclusivity comes from the Flux allocation, and a defective
	// node (the 2-core fish) can still host its broker, exactly as the
	// study observed the anomalous instance participating in the fleet.
	free := op.freeNodes(spec.Size)
	if len(free) < spec.Size {
		mc.Status = MiniClusterStatus{Phase: MiniClusterPending,
			Message: fmt.Sprintf("only %d nodes free of %d wanted", len(free), spec.Size)}
		return fmt.Errorf("%w: %d free nodes", ErrInsufficientNodes, len(free))
	}
	for rank := 0; rank < spec.Size; rank++ {
		rankStr := strconv.Itoa(rank)
		pod := &Pod{
			Name: spec.Name + "-" + rankStr,
			Labels: map[string]string{
				"app":  "flux-minicluster",
				"name": spec.Name,
				"rank": rankStr,
			},
			Request: ResourceRequest{Cores: min(1, cores)},
		}
		if err := op.sched.ScheduleOnNode(pod, free[rank]); err != nil {
			mc.Status = MiniClusterStatus{Phase: MiniClusterFailed, Message: err.Error()}
			return fmt.Errorf("k8s: MiniCluster %q broker %d: %w", spec.Name, rank, err)
		}
		mc.Brokers = append(mc.Brokers, pod)
	}

	nested, err := op.root.Spawn(spec.Name, alloc)
	if err != nil {
		mc.Status = MiniClusterStatus{Phase: MiniClusterFailed, Message: err.Error()}
		return err
	}
	mc.Flux = nested
	mc.Status = MiniClusterStatus{Phase: MiniClusterReady, ReadyBrokers: spec.Size}
	return nil
}
