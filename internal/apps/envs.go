package apps

import (
	"fmt"
	"strings"

	"cloudhpc/internal/cloud"
	"cloudhpc/internal/network"
)

// This file defines the study's environment matrix (paper Tables 1–3):
// seven CPU environments and six deployable GPU environments. AWS
// ParallelCluster GPU exists in the matrix but is marked unavailable — the
// study could not build the required combination of newer orchestration
// software with older drivers, reducing the assessment from 12 to 11
// cloud environments.

// EnvSpec is one row of the environment matrix.
type EnvSpec struct {
	Env
	// Scheduler is the workload manager of Table 1.
	Scheduler string
	// ContainerRuntime is "containerd" under Kubernetes, "singularity" in
	// VM environments, and "" on bare metal.
	ContainerRuntime string
	// Unavailable is non-empty when the environment could not be deployed,
	// with the reason.
	Unavailable string
	// CPUScales / GPUScales are the study's cluster sizes for the env.
	Scales []int
}

// StudyEnvironments returns the full matrix in the paper's Table 1 order.
// Every call rebuilds it: a fresh instance catalog, the network models and
// all 14 rows (87 allocations, 7.7 kB). Call it once per process or per
// study, never per run record; a study's own rows are Results.Envs.
func StudyEnvironments() ([]EnvSpec, error) {
	cat := cloud.NewCatalog()
	nets := network.Models()

	mk := func(key, label string, p cloud.Provider, acc cloud.Accelerator, inst string,
		k8s bool, sched, runtime string, colocated bool, scales []int) (EnvSpec, error) {
		it, err := cat.Lookup(p, inst)
		if err != nil {
			return EnvSpec{}, err
		}
		net, ok := nets[it.Fabric]
		if !ok {
			return EnvSpec{}, fmt.Errorf("apps: no network model for %s", it.Fabric)
		}
		return EnvSpec{
			Env: Env{
				Key: key, Label: label, Provider: p, Acc: acc, Kubernetes: k8s,
				Instance: it, Net: net,
				Path: network.Path{Colocated: colocated, Overlay: k8s},
			},
			Scheduler: sched, ContainerRuntime: runtime, Scales: scales,
		}, nil
	}

	cpuScales := []int{32, 64, 128, 256}
	gpuScales := []int{4, 8, 16, 32}
	gpuScalesB := []int{8, 16, 32, 64} // cluster B: 4 GPUs/node, double the nodes

	rows := []struct {
		key, label string
		p          cloud.Provider
		acc        cloud.Accelerator
		inst       string
		k8s        bool
		sched      string
		runtime    string
		colocated  bool
		scales     []int
		unavail    string
	}{
		// CPU (Table 1 order).
		{"onprem-a-cpu", "On-Premises A", cloud.OnPrem, cloud.CPU, "dell-xeon-8480", false, "Slurm", "", true, cpuScales, ""},
		{"aws-parallelcluster-cpu", "AWS ParallelCluster", cloud.AWS, cloud.CPU, "Hpc6a", false, "Slurm", "singularity", true, cpuScales, ""},
		{"aws-eks-cpu", "AWS EKS", cloud.AWS, cloud.CPU, "Hpc6a", true, "Flux", "containerd", true, cpuScales, ""},
		{"google-computeengine-cpu", "Google Compute Engine", cloud.Google, cloud.CPU, "c2d-standard-112", false, "Flux", "singularity", false, cpuScales, ""},
		{"google-gke-cpu", "Google GKE", cloud.Google, cloud.CPU, "c2d-standard-112", true, "Flux", "containerd", true, cpuScales, ""},
		{"azure-cyclecloud-cpu", "Azure CycleCloud", cloud.Azure, cloud.CPU, "HB96rs v3", false, "Slurm", "singularity", true, cpuScales, ""},
		{"azure-aks-cpu", "Azure AKS", cloud.Azure, cloud.CPU, "HB96rs v3", true, "Flux", "containerd", true, cpuScales, ""},
		// GPU.
		{"onprem-b-gpu", "On-Premises B", cloud.OnPrem, cloud.GPU, "ibm-power9-v100", false, "LSF", "", true, gpuScalesB, ""},
		{"aws-parallelcluster-gpu", "AWS ParallelCluster", cloud.AWS, cloud.GPU, "p3dn.24xlarge", false, "Slurm", "singularity", true, gpuScales,
			"custom build combining newer orchestration software with older drivers was not possible"},
		{"aws-eks-gpu", "AWS EKS", cloud.AWS, cloud.GPU, "p3dn.24xlarge", true, "Flux", "containerd", true, gpuScales, ""},
		{"google-computeengine-gpu", "Google Compute Engine", cloud.Google, cloud.GPU, "n1-standard-32", false, "Flux", "singularity", false, gpuScales, ""},
		{"google-gke-gpu", "Google GKE", cloud.Google, cloud.GPU, "n1-standard-32", true, "Flux", "containerd", true, gpuScales, ""},
		{"azure-cyclecloud-gpu", "Azure CycleCloud", cloud.Azure, cloud.GPU, "ND40rs v2", false, "Slurm", "singularity", true, gpuScales, ""},
		{"azure-aks-gpu", "Azure AKS", cloud.Azure, cloud.GPU, "ND40rs v2", true, "Flux", "containerd", true, gpuScales, ""},
	}

	out := make([]EnvSpec, 0, len(rows))
	for _, r := range rows {
		spec, err := mk(r.key, r.label, r.p, r.acc, r.inst, r.k8s, r.sched, r.runtime, r.colocated, r.scales)
		if err != nil {
			return nil, err
		}
		spec.Unavailable = r.unavail
		out = append(out, spec)
	}
	return out, nil
}

// MatchEnv reports whether an environment-selector pattern matches a
// matrix key: "*" matches everything, a trailing "*" is a prefix glob
// ("azure-*"), anything else is an exact key.
func MatchEnv(pattern, key string) bool {
	switch {
	case pattern == "*":
		return true
	case strings.HasSuffix(pattern, "*"):
		return strings.HasPrefix(key, strings.TrimSuffix(pattern, "*"))
	default:
		return pattern == key
	}
}

// SelectEnvironments resolves environment-selector patterns against the
// study matrix. The result preserves matrix order and contains no
// duplicates regardless of pattern order or overlap. A pattern that
// matches nothing is an error — a silent empty selection hides typos.
// An empty pattern list selects the full matrix.
func SelectEnvironments(patterns []string) ([]EnvSpec, error) {
	envs, err := StudyEnvironments()
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		return envs, nil
	}
	selected := make([]bool, len(envs))
	for _, p := range patterns {
		hit := false
		for i, e := range envs {
			if MatchEnv(p, e.Key) {
				selected[i] = true
				hit = true
			}
		}
		if !hit {
			return nil, fmt.Errorf("apps: environment pattern %q matches nothing in the matrix", p)
		}
	}
	var out []EnvSpec
	for i, e := range envs {
		if selected[i] {
			out = append(out, e)
		}
	}
	return out, nil
}

// EnvByKey returns one environment from the matrix. It rebuilds the whole
// matrix (see StudyEnvironments) to find the row, so it is for one-off
// lookups — a CLI flag, a fleet unit — not for loops over a dataset.
func EnvByKey(key string) (EnvSpec, error) {
	envs, err := StudyEnvironments()
	if err != nil {
		return EnvSpec{}, err
	}
	for _, e := range envs {
		if e.Key == key {
			return e, nil
		}
	}
	return EnvSpec{}, fmt.Errorf("apps: unknown environment %q", key)
}

// Deployable filters out environments the study could not deploy.
func Deployable(envs []EnvSpec) []EnvSpec {
	var out []EnvSpec
	for _, e := range envs {
		if e.Unavailable == "" {
			out = append(out, e)
		}
	}
	return out
}

// MaxNodesFor applies harness-level resource limits the paper reports:
// the largest EKS GPU size was not possible due to inability to get GPUs.
func MaxNodesFor(e EnvSpec) int {
	max := 0
	for _, s := range e.Scales {
		if s > max {
			max = s
		}
	}
	if e.Key == "aws-eks-gpu" {
		return 16 // 32-node (256 GPU) size unobtainable
	}
	return max
}
