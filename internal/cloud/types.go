// Package cloud simulates the infrastructure substrate of the study: the
// three public cloud providers plus the on-premises center, their instance
// catalogs (paper Table 2), quota and reservation behaviour, placement
// groups, cluster provisioning with the failure modes the paper observed,
// and metered billing with per-provider reporting lag.
package cloud

import (
	"fmt"
	"time"
)

// Provider identifies an infrastructure operator.
type Provider string

const (
	AWS    Provider = "aws"
	Azure  Provider = "azure"
	Google Provider = "google"
	OnPrem Provider = "onprem"
)

// Providers lists all providers in the study, in the paper's citation order.
var Providers = []Provider{AWS, Azure, Google, OnPrem}

// Accelerator distinguishes the two compute configurations of the study.
type Accelerator string

const (
	CPU Accelerator = "CPU"
	GPU Accelerator = "GPU"
)

// Fabric names a network interconnect. The concrete performance model for
// each fabric lives in package network; the catalog only records which
// fabric an instance type attaches to.
type Fabric string

const (
	EFAGen1       Fabric = "EFA Gen1"
	EFAGen15      Fabric = "EFA Gen1.5"
	InfiniBandHDR Fabric = "InfiniBand HDR"
	InfiniBandEDR Fabric = "InfiniBand EDR"
	OmniPath100   Fabric = "Omni-Path 100"
	GooglePremium Fabric = "Google Premium"
	GoogleTier1   Fabric = "Google Premium, Tier_1"
	GoogleStd     Fabric = "Google Standard"
)

// InstanceType describes a node SKU as in the paper's Table 2.
type InstanceType struct {
	Name      string // e.g. "Hpc6a", "HB96rs v3", "c2d-standard-112"
	Provider  Provider
	Processor string  // CPU model, and GPU model when GPUs > 0
	Cores     int     // physical cores per node
	ClockGHz  float64 // nominal frequency
	MemoryGB  int
	GPUs      int    // GPUs per node (0 for CPU SKUs)
	GPUModel  string // e.g. "V100 16GB"
	GPUMemGB  int
	Fabric    Fabric
	HourlyUSD float64 // per-instance cost including GPUs; 0 for on-prem
}

// String returns "provider/name".
func (it InstanceType) String() string { return fmt.Sprintf("%s/%s", it.Provider, it.Name) }

// Node is a provisioned instance. Type points at the SKU its cluster
// was provisioned with (Cluster.Type), so a node does not carry a copy.
type Node struct {
	ID       string
	Type     *InstanceType
	Zone     string
	BootedAt time.Duration

	// Health defects observed in the study. A healthy node has none.
	VisibleGPUs  int  // usually Type.GPUs; Azure sometimes exposes 7/8
	VisibleCores int  // usually Type.Cores; the "supermarket fish" node saw 2
	ECCEnabled   bool // GPU error correction; Azure fleet was inconsistent
	Healthy      bool
}

// DefectiveGPU reports whether the node exposes fewer GPUs than its SKU.
func (n *Node) DefectiveGPU() bool { return n.Type.GPUs > 0 && n.VisibleGPUs < n.Type.GPUs }

// DefectiveCPU reports whether the node exposes fewer cores than its SKU.
func (n *Node) DefectiveCPU() bool { return n.VisibleCores < n.Type.Cores }

// Cluster is a provisioned set of nodes plus placement metadata.
type Cluster struct {
	Name      string
	Type      InstanceType
	Nodes     []*Node
	Placement PlacementResult
	CreatedAt time.Duration
	DeletedAt time.Duration // zero until Teardown
	torn      bool
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.Nodes) }

// TotalCores returns the sum of visible cores across nodes.
func (c *Cluster) TotalCores() int {
	sum := 0
	for _, n := range c.Nodes {
		sum += n.VisibleCores
	}
	return sum
}

// TotalGPUs returns the sum of visible GPUs across nodes.
func (c *Cluster) TotalGPUs() int {
	sum := 0
	for _, n := range c.Nodes {
		sum += n.VisibleGPUs
	}
	return sum
}

// HealthyNodes returns the nodes with no defects.
func (c *Cluster) HealthyNodes() []*Node {
	var out []*Node
	for _, n := range c.Nodes {
		if n.Healthy && !n.DefectiveGPU() && !n.DefectiveCPU() {
			out = append(out, n)
		}
	}
	return out
}
