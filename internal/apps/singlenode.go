package apps

import (
	"fmt"

	"cloudhpc/internal/cloud"
	"cloudhpc/internal/sim"
)

// SingleNode models the team-developed single-node inventory benchmark
// (paper §2.8): on every node it captures dmidecode output, /proc/cpuinfo,
// the hwloc topology, and a sysbench score. Its scalar FOM is the sysbench
// CPU events/s of one node.
//
// Its qualitative product is the fleet audit that found the "supermarket
// fish problem": one AKS instance reported only two processors across all
// collection mechanisms — you bought an instance type, but what species
// you received is another question.
type SingleNode struct{}

// NewSingleNode returns the benchmark.
func NewSingleNode() *SingleNode { return &SingleNode{} }

func (s *SingleNode) Name() string         { return "single-node" }
func (s *SingleNode) Unit() string         { return "sysbench events/s" }
func (s *SingleNode) HigherIsBetter() bool { return true }
func (s *SingleNode) Scaling() Scaling     { return Single }

// Run scores one (healthy) node of the environment.
func (s *SingleNode) Run(env Env, nodes int, rng *sim.Stream) Result {
	fom := rng.Jitter(float64(env.Instance.Cores)*env.Instance.ClockGHz*95, 0.02)
	return Result{FOM: fom, Unit: s.Unit(), Wall: wallFromRate(1e4, fom)}
}

// Report is the per-node inventory the benchmark collects: the processor
// count the audit compares against the SKU, and the sysbench score. The
// dmidecode and hwloc captures of §2.8 are not kept as text, since
// nothing reads them.
type Report struct {
	Processors int // from /proc/cpuinfo
	Sysbench   float64
}

// Collect produces the inventory of one provisioned node. The audit runs
// it against every node of an environment's largest fleet, so it builds
// no strings. It draws exactly one value from rng, the sysbench score.
func Collect(n *cloud.Node, rng *sim.Stream) Report {
	return Report{
		Processors: n.VisibleCores,
		Sysbench:   rng.Jitter(float64(n.VisibleCores)*n.Type.ClockGHz*95, 0.02),
	}
}

// Finding is one anomaly surfaced by the fleet audit.
type Finding struct {
	NodeID string
	Detail string
}

// Audit compares every node's inventory against the SKU's expectation and
// returns the anomalies — the supermarket-fish detector.
func Audit(nodes []*cloud.Node, reports []Report) []Finding {
	var out []Finding
	for i, n := range nodes {
		if i >= len(reports) {
			break
		}
		r := reports[i]
		if r.Processors != n.Type.Cores {
			out = append(out, Finding{
				NodeID: n.ID,
				Detail: fmt.Sprintf("reports %d processors, SKU %s has %d", r.Processors, n.Type.Name, n.Type.Cores),
			})
		}
	}
	return out
}
