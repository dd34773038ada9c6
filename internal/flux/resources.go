// Package flux implements a Flux-Framework-style hierarchical resource
// manager, after the scheduler the study deployed in every Kubernetes
// environment (via the Flux Operator) and on the Compute Engine VM
// clusters (paper §2.3). The study itself does not run this package:
// its jobs queue on sched.NewFlux, and a MiniCluster deploy builds no
// resource graph. Only the flux.* probes of the repository benchmark
// (bench/) call it.
//
// Flux's defining ideas, reproduced here:
//
//   - Resources form a *graph* (cluster → nodes → sockets → cores/GPUs),
//     and jobs are matched against it rather than against a flat count.
//   - Job requests are *jobspecs*: declarative resource shapes ("2 nodes
//     with 4 cores and 1 GPU per task").
//   - Instances are *hierarchical*: a job can be an entire nested Flux
//     instance managing the resources it was granted — exactly how the
//     Flux Operator carves a MiniCluster out of Kubernetes nodes.
package flux

import (
	"fmt"
	"strconv"
	"strings"
)

// ResourceType names a vertex type in the resource graph.
type ResourceType string

const (
	ClusterRes ResourceType = "cluster"
	NodeRes    ResourceType = "node"
	SocketRes  ResourceType = "socket"
	CoreRes    ResourceType = "core"
	GPURes     ResourceType = "gpu"
)

// Resource is a vertex in the hierarchical resource graph.
type Resource struct {
	Type     ResourceType
	Name     string
	Children []*Resource

	allocatedTo uint64 // job ID holding this vertex (0 = free)
}

// NewCluster builds a uniform cluster graph: nodes × sockets × (cores,
// gpus) per socket. It panics on non-positive nodes or sockets because a
// resource graph without vertices is a caller bug.
//
// A 256-node CPU cluster holds ~30k leaf vertices, so the whole graph
// is carved out of three bulk allocations: one Resource arena for every
// vertex, one backing array every Children slice is a sub-slice of, and
// one string all vertex names alias (each name is a slice of the
// concatenation of all of them). The per-vertex strings and slices
// fmt/append construction would allocate collapse to O(1) allocations
// per cluster, byte-identical names included.
func NewCluster(name string, nodes, socketsPerNode, coresPerSocket, gpusPerSocket int) *Resource {
	if nodes <= 0 || socketsPerNode <= 0 {
		panic(fmt.Sprintf("flux: invalid cluster shape %d nodes × %d sockets", nodes, socketsPerNode))
	}
	leavesPerSocket := coresPerSocket + gpusPerSocket
	sockets := nodes * socketsPerNode
	leaves := sockets * leavesPerSocket
	total := 1 + nodes + sockets + leaves

	arena := make([]Resource, total)
	childBacking := make([]*Resource, nodes+sockets+leaves)
	// Every non-root name, concatenated in construction order into one
	// exactly-sized builder (String() hands over the backing array
	// without a copy, so there is no oversized transient and no retained
	// slack); ends[i] is the end offset of vertex i's name (vertex 0 —
	// the root — keeps the caller's name string).
	var nameBuf strings.Builder
	nameBuf.Grow(clusterNameBytes(len(name), nodes, socketsPerNode, coresPerSocket, gpusPerSocket))
	ends := make([]int32, total)

	cur := 0 // childBacking cursor
	carve := func(n int) []*Resource {
		s := childBacking[cur : cur+n : cur+n]
		cur += n
		return s
	}

	cluster := &arena[0]
	cluster.Type, cluster.Name = ClusterRes, name
	cluster.Children = carve(nodes)[:0]

	idx := 1
	buf := make([]byte, 0, len(name)+32) // scratch for the vertex under construction
	for n := 0; n < nodes; n++ {
		// name + "-node%03d"
		buf = append(buf[:0], name...)
		buf = append(buf, "-node"...)
		if n < 100 {
			buf = append(buf, '0')
			if n < 10 {
				buf = append(buf, '0')
			}
		}
		buf = strconv.AppendInt(buf, int64(n), 10)
		node := &arena[idx]
		nameBuf.Write(buf)
		ends[idx] = int32(nameBuf.Len())
		idx++
		node.Type = NodeRes
		node.Children = carve(socketsPerNode)[:0]
		nodeLen := len(buf)
		for s := 0; s < socketsPerNode; s++ {
			buf = append(buf[:nodeLen], "-s"...)
			buf = strconv.AppendInt(buf, int64(s), 10)
			socket := &arena[idx]
			nameBuf.Write(buf)
			ends[idx] = int32(nameBuf.Len())
			idx++
			socket.Type = SocketRes
			socket.Children = carve(leavesPerSocket)[:0]
			socketLen := len(buf)
			for c := 0; c < coresPerSocket; c++ {
				buf = append(buf[:socketLen], "-c"...)
				buf = strconv.AppendInt(buf, int64(c), 10)
				leaf := &arena[idx]
				nameBuf.Write(buf)
				ends[idx] = int32(nameBuf.Len())
				idx++
				leaf.Type = CoreRes
				socket.Children = append(socket.Children, leaf)
			}
			for g := 0; g < gpusPerSocket; g++ {
				buf = append(buf[:socketLen], "-g"...)
				buf = strconv.AppendInt(buf, int64(g), 10)
				leaf := &arena[idx]
				nameBuf.Write(buf)
				ends[idx] = int32(nameBuf.Len())
				idx++
				leaf.Type = GPURes
				socket.Children = append(socket.Children, leaf)
			}
			node.Children = append(node.Children, socket)
		}
		cluster.Children = append(cluster.Children, node)
	}

	allNames := nameBuf.String()
	for i := 1; i < total; i++ {
		arena[i].Name = allNames[ends[i-1]:ends[i]]
	}
	return cluster
}

// clusterNameBytes computes the exact byte length of every non-root
// vertex name in a uniform cluster, concatenated — so NewCluster's name
// builder never over- or under-grows. Name shapes: node = name +
// "-node%03d", socket = node + "-s%d", leaf = socket + "-c%d"/"-g%d".
func clusterNameBytes(nameLen, nodes, socketsPerNode, coresPerSocket, gpusPerSocket int) int {
	leavesPerSocket := coresPerSocket + gpusPerSocket
	sdig := digitsSum(socketsPerNode)
	cdig := digitsSum(coresPerSocket)
	gdig := digitsSum(gpusPerSocket)
	total := 0
	for n := 0; n < nodes; n++ {
		nl := nameLen + 5 + 3 // "-node" + %03d
		if n >= 1000 {
			nl = nameLen + 5 + digits(n)
		}
		// Socket names for this node sum to S; each of the node's
		// leavesPerSocket×socketsPerNode leaves repeats its socket's name
		// plus a 2-byte "-c"/"-g" tag and its own index digits.
		s := socketsPerNode*(nl+2) + sdig
		total += nl + s + leavesPerSocket*s + socketsPerNode*(2*leavesPerSocket+cdig+gdig)
	}
	return total
}

// digits returns the decimal width of a non-negative int.
func digits(i int) int {
	n := 1
	for i >= 10 {
		i /= 10
		n++
	}
	return n
}

// digitsSum returns Σ digits(i) for i in [0, k).
func digitsSum(k int) int {
	s := 0
	for i := 0; i < k; i++ {
		s += digits(i)
	}
	return s
}

// Walk visits every vertex depth-first.
func (r *Resource) Walk(visit func(*Resource)) {
	visit(r)
	for _, c := range r.Children {
		c.Walk(visit)
	}
}

// Count returns the number of vertices of a type under r (inclusive).
func (r *Resource) Count(t ResourceType) int {
	n := 0
	r.Walk(func(v *Resource) {
		if v.Type == t {
			n++
		}
	})
	return n
}

// CountFree returns unallocated vertices of a type under r. A vertex is
// considered allocated if it or any ancestor holds an allocation; callers
// must pass the graph root for exact results.
func (r *Resource) CountFree(t ResourceType) int {
	n := 0
	var walk func(v *Resource, busy bool)
	walk = func(v *Resource, busy bool) {
		busy = busy || v.allocatedTo != 0
		if v.Type == t && !busy {
			n++
		}
		for _, c := range v.Children {
			walk(c, busy)
		}
	}
	walk(r, false)
	return n
}

// nodesUnder returns the node vertices under r.
func (r *Resource) nodesUnder() []*Resource {
	var out []*Resource
	r.Walk(func(v *Resource) {
		if v.Type == NodeRes {
			out = append(out, v)
		}
	})
	return out
}

// String renders the graph as an indented tree (for diagnostics).
func (r *Resource) String() string {
	var b strings.Builder
	var walk func(v *Resource, depth int)
	walk = func(v *Resource, depth int) {
		fmt.Fprintf(&b, "%s%s %s", strings.Repeat("  ", depth), v.Type, v.Name)
		if v.allocatedTo != 0 {
			fmt.Fprintf(&b, " [job %d]", v.allocatedTo)
		}
		b.WriteByte('\n')
		// Compress leaf fan-out: print counts instead of thousands of cores.
		var leafCores, leafGPUs int
		for _, c := range v.Children {
			switch {
			case c.Type == CoreRes:
				leafCores++
			case c.Type == GPURes:
				leafGPUs++
			default:
				walk(c, depth+1)
			}
		}
		if leafCores > 0 || leafGPUs > 0 {
			fmt.Fprintf(&b, "%s%d cores, %d gpus\n", strings.Repeat("  ", depth+1), leafCores, leafGPUs)
		}
	}
	walk(r, 0)
	return b.String()
}
