// Package memnode models the passive memory node of the disaggregated
// system: pre-registered memory regions served entirely by one-sided
// RDMA, with no CPU involvement in the data path (the design shared by
// DiLOS, Fastswap, and Adios). Nodes keep no per-page routing state:
// a cluster's static Placement says which node holds each copy of a
// page, and where repair or migration has since re-homed a copy is the
// compute node's to know (package paging). A node can additionally
// carry stall windows — intervals of unresponsiveness a fault plan
// schedules — that the fabric consults to delay operations, the
// pause/stall half of the failure model.
package memnode

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Region is a registered remote-memory region. Data is the authoritative
// backing store for pages that are not resident in the compute node's
// local cache.
//
// A region allocated through a Cluster is spread across the cluster's
// nodes by its Placement: Data stays one contiguous slice (the region is
// a single virtual object), but each copy of a page has exactly one
// owning node, and all fabric traffic for that copy must go over the
// owner's link. The region knows only the static placement (OwnerAt);
// where repair and migration have since re-homed a copy is the compute
// node's routing state, kept by the paging layer's owner table, as on a
// real memory pool whose nodes serve one-sided verbs and track nothing.
//
// Data is an anonymous mapping outside the Go heap (Map), owned by the
// region: a slice of it is valid while the Region is reachable. Every
// holder reaches it that way — the apps' set-up writes through their
// Region, the rdma verbs and a resident page's view through the
// Space's region, and the node through its region table.
type Region struct {
	Name    string
	Data    []byte
	backing *Backing // keeps Data mapped

	// pl is the cluster's placement; a region allocated on a single Node
	// has a one-node placement, which answers 0 for every copy.
	pl Placement
}

// Slice returns the byte view [off, off+n) of the region for use as the
// remote side of an RDMA verb. Out-of-range requests are a protection
// violation — the remote-key check a real HCA performs — and panic with
// the region, offset, and size rather than a bare slice error.
func (r *Region) Slice(off, n int64) []byte {
	return r.SliceFor(off, n, -1, "")
}

// SliceFor is Slice with fault attribution: node and qp identify the
// memory node and queue pair on whose behalf the access is made, so a
// multi-node bounds violation names the shard and QP that issued it.
// node < 0 means the requester is unknown (plain Slice).
func (r *Region) SliceFor(off, n int64, node int, qp string) []byte {
	if off < 0 || n < 0 || off+n > int64(len(r.Data)) {
		msg := fmt.Sprintf("memnode: region %q: access [%d, %d) outside registered [0, %d)",
			r.Name, off, off+n, len(r.Data))
		if node >= 0 {
			msg += fmt.Sprintf(" (requested by node %d, qp %q)", node, qp)
		}
		panic(msg)
	}
	return r.Data[off : off+n]
}

// Nodes returns the number of cluster nodes the region is spread over
// (1 for a region allocated on a single Node).
func (r *Region) Nodes() int { return r.pl.Nodes }

// Replicas returns the region's replication factor.
func (r *Region) Replicas() int { return r.pl.Replicas }

// OwnerAt returns the node the static placement puts the k-th copy of a
// page on: slot 0 is the primary, slots 1..Replicas()-1 the replicas.
func (r *Region) OwnerAt(page int64, k int) int {
	if k < 0 || k >= r.pl.Replicas {
		panic(fmt.Sprintf("memnode: region %q: replica slot %d outside factor %d",
			r.Name, k, r.pl.Replicas))
	}
	return r.pl.Owner(page, k)
}

// Size returns the region length in bytes.
func (r *Region) Size() int64 { return int64(len(r.Data)) }

// Node is a memory node with a fixed capacity of registerable memory.
type Node struct {
	capacity  int64
	allocated int64
	regions   map[string]*Region

	// stalls are [from, until) windows (sim time, cycles) during which
	// the node is unresponsive, appended chronologically by the fault
	// plan. Operations arriving inside a window are served at its end.
	stalls  [][2]int64
	stalled int64 // total injected unavailability, cycles

	// Stalls counts scheduled stall windows.
	Stalls stats.Counter
}

// New returns a memory node with the given capacity in bytes.
func New(capacity int64) *Node {
	return &Node{capacity: capacity, regions: make(map[string]*Region)}
}

// Alloc registers a new region of the given size. Names must be unique.
func (n *Node) Alloc(name string, size int64) (*Region, error) {
	if _, dup := n.regions[name]; dup {
		return nil, fmt.Errorf("memnode: region %q already exists", name)
	}
	if n.allocated+size > n.capacity {
		return nil, fmt.Errorf("memnode: out of memory: %d requested, %d free",
			size, n.capacity-n.allocated)
	}
	r, err := newRegion(name, size, Placement{Nodes: 1, Block: 1, Replicas: 1})
	if err != nil {
		return nil, err
	}
	n.regions[name] = r
	n.allocated += size
	return r, nil
}

// newRegion maps the bytes of a region. A negative size is refused
// here, before any ledger is charged.
func newRegion(name string, size int64, pl Placement) (*Region, error) {
	data, b, err := Map(size)
	if err != nil {
		return nil, fmt.Errorf("memnode: region %q: %w", name, err)
	}
	return &Region{Name: name, Data: data, backing: b, pl: pl}, nil
}

// MustAlloc is Alloc for setup code where failure is a configuration bug.
func (n *Node) MustAlloc(name string, size int64) *Region {
	r, err := n.Alloc(name, size)
	if err != nil {
		panic(err)
	}
	return r
}

// Region returns the named region, or nil.
func (n *Node) Region(name string) *Region { return n.regions[name] }

// Pause schedules a stall window: the node is unresponsive during
// [from, until). Windows must be appended in non-decreasing start
// order (a fault plan generates them chronologically); a window that
// overlaps the previous one is merged into it.
func (n *Node) Pause(from, until int64) {
	if until <= from {
		return
	}
	if last := len(n.stalls) - 1; last >= 0 {
		if from < n.stalls[last][0] {
			panic("memnode: Pause windows must be scheduled in order")
		}
		if from <= n.stalls[last][1] { // overlap/adjacent: extend
			if until > n.stalls[last][1] {
				n.stalled += until - n.stalls[last][1]
				n.stalls[last][1] = until
			}
			return
		}
	}
	n.stalls = append(n.stalls, [2]int64{from, until})
	n.stalled += until - from
	n.Stalls.Inc()
}

// AvailableAt returns the earliest time ≥ t at which the node serves:
// t itself when no stall window covers it, otherwise the end of the
// covering window.
func (n *Node) AvailableAt(t int64) int64 {
	// Windows are sorted and disjoint; find the first ending after t.
	i := sort.Search(len(n.stalls), func(i int) bool { return n.stalls[i][1] > t })
	if i < len(n.stalls) && n.stalls[i][0] <= t {
		return n.stalls[i][1]
	}
	return t
}

// StalledTime returns the total scheduled unavailability in cycles.
func (n *Node) StalledTime() int64 { return n.stalled }

// StallWindows returns a copy of the scheduled [from, until) stall
// windows, for per-node trace lanes and diagnostics.
func (n *Node) StallWindows() [][2]int64 {
	out := make([][2]int64, len(n.stalls))
	copy(out, n.stalls)
	return out
}
