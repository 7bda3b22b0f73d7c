package memnode

import (
	"fmt"

	"repro/internal/simcheck"
)

// Allocator is the registration surface shared by a single Node and a
// Cluster, so applications allocate their regions the same way whether
// the backing store is one memory node or a striped set.
type Allocator interface {
	// Alloc registers a new region of the given size. Names must be
	// unique across the backing store.
	Alloc(name string, size int64) (*Region, error)
	// MustAlloc is Alloc for setup code where failure is a
	// configuration bug.
	MustAlloc(name string, size int64) *Region
	// Region returns the named region, or nil.
	Region(name string) *Region
}

var (
	_ Allocator = (*Node)(nil)
	_ Allocator = (*Cluster)(nil)
)

// Placement is the one static placement rule of a cluster: copy k of
// page p lives on node (p/Block + k) mod Nodes. Block 1 stripes pages
// across the nodes, so any aligned range is balanced to within one page;
// a larger Block keeps runs of Block pages on one node, so a skewed
// access pattern concentrates on whole nodes — the imbalance migration
// exists to fix. Slot 0 is the primary and slots 1..Replicas-1 follow it
// around the node ring, so the copies of a page sit on distinct nodes.
// The rule never changes during a run and is what capacity is charged
// by; repair and migration re-home single copies on top of it in the
// paging layer's owner table.
type Placement struct {
	Nodes    int   // memory nodes, ≥ 1
	Block    int64 // pages per contiguous run, ≥ 1
	Replicas int   // copies of every page, in [1, Nodes]
}

// Owner returns the node holding copy k of page under the static rule.
func (p Placement) Owner(page int64, k int) int {
	return int((page/p.Block + int64(k)) % int64(p.Nodes))
}

// Cluster is an ordered set of memory nodes serving one compute node.
// Regions allocated through it are spread page-wise across the nodes by
// its Placement: every copy of a page is owned by — and its capacity
// charged to — exactly one node, and all fabric traffic for the copy
// uses the owner's link, so a replicated region consumes Replicas times
// its bytes across the cluster. A single-node cluster degenerates to the
// plain Node path and is behaviourally identical to it.
type Cluster struct {
	nodes    []*Node
	pageSize int64
	pl       Placement

	// moved holds the net capacity (bytes) each node gained (+) or shed
	// (-) through explicit ledger moves (page migration). Unlike a repair
	// — which re-homes a copy without moving its accounting — a
	// migration transfers both the bytes and the charge, so the capacity
	// oracle adds these deltas on top of the static placement.
	moved []int64
}

// NewCluster builds a cluster over nodes with the given page size and
// placement, whose Nodes must be len(nodes). A Block below 1 is 1, and
// Replicas is clamped to [1, Nodes]: more copies than nodes cannot sit
// on distinct nodes.
func NewCluster(nodes []*Node, pageSize int64, pl Placement) *Cluster {
	if len(nodes) == 0 {
		panic("memnode: cluster needs at least one node")
	}
	if pageSize <= 0 {
		panic("memnode: cluster page size must be positive")
	}
	if pl.Nodes != len(nodes) {
		panic(fmt.Sprintf("memnode: placement over %d nodes for a cluster of %d", pl.Nodes, len(nodes)))
	}
	pl.Block = max(pl.Block, 1)
	pl.Replicas = min(max(pl.Replicas, 1), pl.Nodes)
	return &Cluster{nodes: nodes, pageSize: pageSize, pl: pl}
}

// Placement returns the cluster's static placement rule.
func (c *Cluster) Placement() Placement { return c.pl }

// MoveCharge transfers n bytes of capacity charge from node `from` to
// node `to`: the page-migration ledger move. The admission decision was
// made by the migration planner (which checks the destination's free
// capacity before copying), so an overflow here is a planner bug and
// panics rather than failing.
func (c *Cluster) MoveCharge(from, to int, n int64) {
	if from == to || n == 0 {
		return
	}
	if c.nodes[to].allocated+n > c.nodes[to].capacity {
		panic(fmt.Sprintf("memnode: MoveCharge overflows node %d: %d charged + %d moved > %d capacity",
			to, c.nodes[to].allocated, n, c.nodes[to].capacity))
	}
	c.nodes[from].allocated -= n
	c.nodes[to].allocated += n
	if c.moved == nil {
		c.moved = make([]int64, len(c.nodes))
	}
	c.moved[from] -= n
	c.moved[to] += n
}

// FreeCapacity returns the uncharged bytes on node i.
func (c *Cluster) FreeCapacity(i int) int64 {
	return c.nodes[i].capacity - c.nodes[i].allocated
}

// NumNodes returns the number of memory nodes in the cluster.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Alloc registers a region striped across the cluster. The region's
// backing bytes are one contiguous slice (a region is a single virtual
// object); ownership and capacity accounting are per page, with the
// tail page charged at its actual size. Registration is atomic: either
// every owning node accepts its share or nothing is registered.
func (c *Cluster) Alloc(name string, size int64) (*Region, error) {
	if len(c.nodes) == 1 {
		return c.nodes[0].Alloc(name, size)
	}
	pages := (size + c.pageSize - 1) / c.pageSize
	perNode := make([]int64, len(c.nodes))
	for p := int64(0); p < pages; p++ {
		b := c.pageSize
		if p == pages-1 {
			b = size - p*c.pageSize
		}
		// Charge the page to every owner: the primary plus each
		// replica slot. Copies on distinct nodes each hold the bytes.
		for k := 0; k < c.pl.Replicas; k++ {
			// The mutation (simcheckmutate builds only) forgets to charge
			// replica copies, so the region holds R copies' bytes while
			// the ledger admits one — the memnode/capacity oracle must
			// catch the undercharge at audit time.
			if k > 0 && simcheck.Mut("memnode-undercharge") {
				continue
			}
			perNode[c.pl.Owner(p, k)] += b
		}
	}
	// Two-phase: check every node before committing to any, so a
	// failure leaves no partial registration behind.
	for i, n := range c.nodes {
		if _, dup := n.regions[name]; dup {
			return nil, fmt.Errorf("memnode: region %q already exists on node %d", name, i)
		}
		if n.allocated+perNode[i] > n.capacity {
			return nil, fmt.Errorf("memnode: node %d out of memory: %d requested, %d free",
				i, perNode[i], n.capacity-n.allocated)
		}
	}
	r, err := newRegion(name, size, c.pl)
	if err != nil {
		return nil, err
	}
	for i, n := range c.nodes {
		n.regions[name] = r
		n.allocated += perNode[i]
	}
	return r, nil
}

// MustAlloc is Alloc for setup code where failure is a configuration bug.
func (c *Cluster) MustAlloc(name string, size int64) *Region {
	r, err := c.Alloc(name, size)
	if err != nil {
		panic(err)
	}
	return r
}

// Region returns the named region, or nil. Cluster allocations
// register on every node, but regions allocated directly on a member
// node (the single-node Alloc shortcut, or setup code mixing the two)
// may live in just one table, so resolve against each node in turn.
func (c *Cluster) Region(name string) *Region {
	for _, n := range c.nodes {
		if r := n.Region(name); r != nil {
			return r
		}
	}
	return nil
}

// Allocated returns the registered bytes summed over all nodes.
func (c *Cluster) Allocated() int64 {
	var t int64
	for _, n := range c.nodes {
		t += n.allocated
	}
	return t
}
