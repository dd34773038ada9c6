package flux

import (
	"errors"
	"fmt"
	"sort"
)

// Instance is one Flux instance: a scheduler over a resource graph.
// Instances nest — Spawn carves a child instance out of an allocation,
// the way the Flux Operator turns a Kubernetes node pool into a
// MiniCluster and batch jobs subdivide their own allocations.
type Instance struct {
	Name   string
	Root   *Resource
	parent *Instance
	depth  int

	nextJobID uint64
	allocs    map[uint64]*Allocation
	queue     []*pending

	// Allocation scratch, reused across Submit/Release cycles so the
	// matcher's candidate walks stop allocating. The graph's vertex set is
	// immutable after construction (allocations only flip allocatedTo), so
	// the node list is computed once; the leaf/claim buffers only ever
	// alias in-flight search state — durable outputs are copied out.
	nodes        []*Resource
	coreScratch  []*Resource
	gpuScratch   []*Resource
	claimScratch []*Resource
	nodeEpochs   []uint32 // per-node "used in this allocation" marks
	epoch        uint32
}

type pending struct {
	id   uint64
	spec Jobspec
}

// ErrBusy is returned when resources exist but are currently allocated.
var ErrBusy = errors.New("flux: insufficient free resources (queued)")

// NewInstance creates a root instance over a resource graph.
func NewInstance(name string, root *Resource) *Instance {
	return &Instance{Name: name, Root: root, allocs: make(map[uint64]*Allocation)}
}

// Depth reports how many ancestors the instance has (0 for the root).
func (in *Instance) Depth() int { return in.depth }

// Parent returns the enclosing instance, nil for the root.
func (in *Instance) Parent() *Instance { return in.parent }

// Pending reports queued (unallocated) jobspecs.
func (in *Instance) Pending() int { return len(in.queue) }

// Allocations returns the live allocations sorted by job ID.
func (in *Instance) Allocations() []*Allocation {
	out := make([]*Allocation, 0, len(in.allocs))
	for _, a := range in.allocs {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}

// Submit validates and tries to allocate a jobspec. If the graph can
// satisfy it but not right now, the job queues and ErrBusy is returned
// with a job ID; Release later promotes queued jobs FIFO.
func (in *Instance) Submit(spec Jobspec) (uint64, *Allocation, error) {
	if err := spec.Validate(); err != nil {
		return 0, nil, err
	}
	if !in.satisfiable(spec) {
		return 0, nil, fmt.Errorf("%w: %d×(%dc,%dg) on %d cores / %d gpus",
			ErrUnsatisfiable, spec.NumSlots, spec.CoresPerSlot, spec.GPUsPerSlot,
			in.Root.Count(CoreRes), in.Root.Count(GPURes))
	}
	in.nextJobID++
	id := in.nextJobID
	alloc, ok := in.tryAllocate(id, spec)
	if !ok {
		in.enqueue(&pending{id: id, spec: spec})
		return id, nil, ErrBusy
	}
	in.allocs[id] = alloc
	return id, alloc, nil
}

// enqueue inserts a pending job in (priority desc, submission) order —
// Flux's urgency semantics.
func (in *Instance) enqueue(p *pending) {
	at := len(in.queue)
	for i, q := range in.queue {
		if p.spec.Priority > q.spec.Priority {
			at = i
			break
		}
	}
	in.queue = append(in.queue, nil)
	copy(in.queue[at+1:], in.queue[at:])
	in.queue[at] = p
}

// Release frees a job's resources and promotes queued jobs FIFO. It
// returns the allocations started by the release.
func (in *Instance) Release(id uint64) ([]*Allocation, error) {
	alloc, ok := in.allocs[id]
	if !ok {
		return nil, fmt.Errorf("flux: job %d has no live allocation", id)
	}
	for _, slot := range alloc.Slots {
		for _, v := range slot {
			v.allocatedTo = 0
		}
	}
	delete(in.allocs, id)

	var started []*Allocation
	remaining := in.queue[:0]
	for _, p := range in.queue {
		if a, ok := in.tryAllocate(p.id, p.spec); ok {
			in.allocs[p.id] = a
			started = append(started, a)
		} else {
			remaining = append(remaining, p)
		}
	}
	in.queue = remaining
	return started, nil
}

// Spawn creates a nested instance over an allocation's nodes — the child
// sees whole nodes (the MiniCluster pattern grants node-exclusive slots).
func (in *Instance) Spawn(name string, alloc *Allocation) (*Instance, error) {
	if len(alloc.Nodes) == 0 {
		return nil, fmt.Errorf("flux: allocation for job %d holds no whole nodes", alloc.JobID)
	}
	// The child gets fresh vertices mirroring the granted nodes, so its
	// allocations never race the parent's bookkeeping. Like NewCluster,
	// the clone is carved from one Resource arena and one Children
	// backing array (names are shared string headers), so a spawn costs
	// O(1) allocations instead of one per vertex.
	total := 0
	for _, n := range alloc.Nodes {
		total += countVertices(n)
	}
	arena := make([]Resource, total)
	childBacking := make([]*Resource, total)
	c := &cloner{arena: arena, backing: childBacking}

	sub := &Resource{Type: ClusterRes, Name: name}
	sub.Children = childBacking[0:0:len(alloc.Nodes)]
	c.cur = len(alloc.Nodes)
	for _, n := range alloc.Nodes {
		sub.Children = append(sub.Children, c.clone(n))
	}
	return &Instance{Name: name, Root: sub, parent: in, depth: in.depth + 1,
		allocs: make(map[uint64]*Allocation)}, nil
}

// countVertices sizes a subtree for the clone arena.
func countVertices(r *Resource) int {
	n := 1
	for _, c := range r.Children {
		n += countVertices(c)
	}
	return n
}

// cloner deep-copies resource subtrees into a pre-sized arena with
// allocations cleared.
type cloner struct {
	arena   []Resource
	backing []*Resource
	next    int // arena cursor
	cur     int // backing cursor
}

func (c *cloner) clone(r *Resource) *Resource {
	v := &c.arena[c.next]
	c.next++
	v.Type, v.Name = r.Type, r.Name
	if n := len(r.Children); n > 0 {
		v.Children = c.backing[c.cur : c.cur : c.cur+n]
		c.cur += n
		for _, ch := range r.Children {
			v.Children = append(v.Children, c.clone(ch))
		}
	}
	return v
}

// nodesUnder returns the instance's node vertices, computed once: the
// vertex set of a graph never changes after construction, only the
// allocatedTo marks do.
func (in *Instance) nodesUnder() []*Resource {
	if in.nodes == nil {
		in.nodes = in.Root.nodesUnder()
		in.nodeEpochs = make([]uint32, len(in.nodes))
	}
	return in.nodes
}

// satisfiable checks whether the spec could ever fit the whole graph.
func (in *Instance) satisfiable(spec Jobspec) bool {
	if spec.NodeExclusive {
		// Need NumSlots nodes each big enough for one slot.
		fit := 0
		for _, n := range in.nodesUnder() {
			if n.Count(CoreRes) >= spec.CoresPerSlot && n.Count(GPURes) >= spec.GPUsPerSlot {
				fit++
			}
		}
		return fit >= spec.NumSlots
	}
	return in.Root.Count(CoreRes) >= spec.TotalCores() &&
		in.Root.Count(GPURes) >= spec.TotalGPUs()
}

// tryAllocate attempts a first-fit placement of every slot. The
// candidate search runs entirely on instance-owned scratch (leaf
// buffers, claim list, node-used epochs); only the granted slots are
// copied into durable exact-size slices on the returned Allocation.
func (in *Instance) tryAllocate(id uint64, spec Jobspec) (*Allocation, bool) {
	alloc := &Allocation{JobID: id, Spec: spec}
	nodes := in.nodesUnder()
	in.epoch++
	claimed := in.claimScratch[:0]

	// One exact-size backing holds every slot's vertex list: slots are
	// uniform (the spec's shape plus the node vertex when exclusive), so
	// a successful allocation costs two slice allocations, not NumSlots.
	slotSize := spec.CoresPerSlot + spec.GPUsPerSlot
	if spec.NodeExclusive {
		slotSize++
	}
	vertBacking := make([]*Resource, 0, spec.NumSlots*slotSize)
	alloc.Slots = make([][]*Resource, 0, spec.NumSlots)

	for slot := 0; slot < spec.NumSlots; slot++ {
		placed := false
		for ni, node := range nodes {
			if node.allocatedTo != 0 {
				continue
			}
			nodeUsed := in.nodeEpochs[ni] == in.epoch
			if spec.NodeExclusive && nodeUsed {
				continue
			}
			cores := in.coreScratch[:0]
			cores, ok := freeLeaves(node, CoreRes, spec.CoresPerSlot, cores)
			in.coreScratch = cores
			if !ok {
				continue
			}
			gpus := in.gpuScratch[:0]
			gpus, ok = freeLeaves(node, GPURes, spec.GPUsPerSlot, gpus)
			in.gpuScratch = gpus
			if !ok {
				continue
			}
			start := len(vertBacking)
			vertBacking = append(vertBacking, cores...)
			vertBacking = append(vertBacking, gpus...)
			if spec.NodeExclusive {
				// Claim the whole node vertex: nothing else may co-tenant.
				node.allocatedTo = id
				claimed = append(claimed, node)
				vertBacking = append(vertBacking, node)
			}
			vertices := vertBacking[start:len(vertBacking):len(vertBacking)]
			for _, v := range vertices {
				if v != node {
					v.allocatedTo = id
					claimed = append(claimed, v)
				}
			}
			alloc.Slots = append(alloc.Slots, vertices)
			if !nodeUsed {
				in.nodeEpochs[ni] = in.epoch
				alloc.Nodes = append(alloc.Nodes, node)
			}
			placed = true
			break
		}
		if !placed {
			for _, v := range claimed {
				v.allocatedTo = 0
			}
			in.claimScratch = claimed
			return nil, false
		}
	}
	in.claimScratch = claimed
	return alloc, true
}

// freeLeaves appends up to n free leaves of a type under a node to out.
// The boolean reports whether n were found; fewer means the node cannot
// host the slot. n == 0 trivially succeeds with no leaves.
func freeLeaves(node *Resource, t ResourceType, n int, out []*Resource) ([]*Resource, bool) {
	if n == 0 {
		return out, true
	}
	out = collectFreeLeaves(node, t, n, false, out)
	return out, len(out) >= n
}

// collectFreeLeaves is freeLeaves' recursive walk, a plain function so
// the hot path allocates no closure.
func collectFreeLeaves(v *Resource, t ResourceType, n int, busy bool, out []*Resource) []*Resource {
	if len(out) >= n {
		return out
	}
	busy = busy || v.allocatedTo != 0
	if v.Type == t && !busy {
		out = append(out, v)
	}
	for _, c := range v.Children {
		out = collectFreeLeaves(c, t, n, busy, out)
		if len(out) >= n {
			break
		}
	}
	return out
}
