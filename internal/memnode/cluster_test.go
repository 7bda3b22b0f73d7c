package memnode

import (
	"strings"
	"testing"
)

func newCluster4(t *testing.T, capacity int64) *Cluster {
	t.Helper()
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = New(capacity)
	}
	return NewCluster(nodes, 4096, Placement{Nodes: 4})
}

func TestClusterStripesCapacity(t *testing.T) {
	c := newCluster4(t, 1<<20)
	// 9 full pages + a 100-byte tail page: pages 0..9, stripe 0 owns
	// pages 0,4,8 (3 pages), stripes 1 owns 1,5,9 (2 full + tail).
	r := c.MustAlloc("r", 9*4096+100)
	if r.Nodes() != 4 {
		t.Fatalf("region Nodes() = %d", r.Nodes())
	}
	if int64(len(r.Data)) != 9*4096+100 {
		t.Fatal("region backing not contiguous at requested size")
	}
	want := []int64{3 * 4096, 2*4096 + 100, 2 * 4096, 2 * 4096}
	for i, w := range want {
		if got := c.nodes[i].allocated; got != w {
			t.Errorf("node %d allocated %d, want %d", i, got, w)
		}
	}
	if c.Allocated() != 9*4096+100 {
		t.Fatalf("cluster allocated %d", c.Allocated())
	}
	for p := int64(0); p < 10; p++ {
		if r.OwnerAt(p, 0) != int(p%4) {
			t.Fatalf("page %d owned by %d", p, r.OwnerAt(p, 0))
		}
	}
	// Every node carries the registration.
	for i := 0; i < 4; i++ {
		if c.nodes[i].Region("r") != r {
			t.Fatalf("node %d missing region", i)
		}
	}
}

func TestClusterAllocAtomic(t *testing.T) {
	// Node capacity fits 2 pages; an 12-page region needs 3 pages per
	// node and must fail on every node without partial registration.
	c := newCluster4(t, 2*4096)
	if _, err := c.Alloc("big", 12*4096); err == nil {
		t.Fatal("over-capacity alloc accepted")
	} else if !strings.Contains(err.Error(), "node 0") {
		t.Fatalf("error does not name the node: %v", err)
	}
	for i := 0; i < 4; i++ {
		if c.nodes[i].allocated != 0 || c.nodes[i].Region("big") != nil {
			t.Fatalf("node %d has partial registration", i)
		}
	}
	// After the failure the name is still free.
	if _, err := c.Alloc("big", 4096); err != nil {
		t.Fatalf("retry after failed alloc: %v", err)
	}
	if _, err := c.Alloc("big", 4096); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate name accepted: %v", err)
	}
}

func TestClusterSingleNodeDelegates(t *testing.T) {
	n := New(1 << 20)
	c := NewCluster([]*Node{n}, 4096, Placement{Nodes: 1})
	r := c.MustAlloc("x", 3*4096)
	if n.Region("x") != r {
		t.Fatal("single-node cluster did not register on the node")
	}
	// A delegated region is unsharded: wholly owned by node 0.
	if r.Nodes() != 1 || r.OwnerAt(17, 0) != 0 {
		t.Fatal("single-node region not owned by node 0")
	}
}

// TestSliceForNamesRequester asserts the fault-attribution contract:
// an out-of-bounds remote access panics with the requesting memory node
// and queue pair in the message, while plain Slice keeps the classic
// unattributed message.
func TestSliceForNamesRequester(t *testing.T) {
	c := newCluster4(t, 1<<20)
	r := c.MustAlloc("r", 2*4096)

	mustPanic := func(fn func()) string {
		t.Helper()
		defer func() { recover() }()
		var msg string
		func() {
			defer func() {
				if p := recover(); p != nil {
					msg = p.(string)
				}
			}()
			fn()
		}()
		if msg == "" {
			t.Fatal("expected panic")
		}
		return msg
	}

	msg := mustPanic(func() { r.SliceFor(4096, 8192, 2, "w1@n2") })
	for _, want := range []string{`region "r"`, "node 2", `qp "w1@n2"`} {
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q missing %q", msg, want)
		}
	}

	plain := mustPanic(func() { r.Slice(-1, 4096) })
	if strings.Contains(plain, "requested by") {
		t.Fatalf("unattributed Slice leaked attribution: %q", plain)
	}
}

// TestClusterRegionResolvesOnAnyNode is the regression for Region
// lookup delegating to nodes[0] only: a region registered directly on a
// member node (setup code mixing node-level and cluster-level
// allocation) must still resolve through the cluster.
func TestClusterRegionResolvesOnAnyNode(t *testing.T) {
	c := newCluster4(t, 1<<20)
	r, err := c.nodes[2].Alloc("side", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if c.Region("side") != r {
		t.Fatal("cluster Region() cannot see a region registered on node 2")
	}
	if c.Region("absent") != nil {
		t.Fatal("unknown region resolved")
	}
}

// TestClusterReplicatedAlloc checks the replication accounting: every
// copy is charged to its owner, the region reports the factor and the
// per-slot owners, and owners of one page are distinct nodes.
func TestClusterReplicatedAlloc(t *testing.T) {
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = New(1 << 20)
	}
	c := NewCluster(nodes, 4096, Placement{Nodes: 4, Replicas: 2})
	if c.Placement().Replicas != 2 {
		t.Fatalf("Replicas = %d", c.Placement().Replicas)
	}
	r := c.MustAlloc("r", 8*4096)
	if r.Replicas() != 2 {
		t.Fatalf("region Replicas() = %d", r.Replicas())
	}
	// 8 pages x 2 copies: every node owns 2 primaries and 2 replicas.
	for i := 0; i < 4; i++ {
		if got := c.nodes[i].allocated; got != 4*4096 {
			t.Errorf("node %d allocated %d, want %d", i, got, 4*4096)
		}
	}
	if c.Allocated() != 2*8*4096 {
		t.Fatalf("cluster allocated %d", c.Allocated())
	}
	for p := int64(0); p < 8; p++ {
		if r.OwnerAt(p, 0) != int(p%4) {
			t.Fatalf("page %d: primary on node %d, want %d", p, r.OwnerAt(p, 0), p%4)
		}
		if r.OwnerAt(p, 0) == r.OwnerAt(p, 1) {
			t.Fatalf("page %d: both copies on node %d", p, r.OwnerAt(p, 0))
		}
	}
}

// TestClusterReplicasClamped: a factor above the node count clamps, a
// zero block is the stripe, and a placement over another node count
// panics.
func TestClusterReplicasClamped(t *testing.T) {
	nodes := []*Node{New(1 << 20), New(1 << 20)}
	if got := NewCluster(nodes, 4096, Placement{Nodes: 2, Replicas: 9}).Placement(); got.Replicas != 2 || got.Block != 1 {
		t.Fatalf("factor 9 over 2 nodes gives %+v", got)
	}
	if got := NewCluster(nodes, 4096, Placement{Nodes: 2}).Placement().Replicas; got != 1 {
		t.Fatalf("factor 0 clamped to %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("placement over 4 nodes for a cluster of 2 did not panic")
		}
	}()
	NewCluster(nodes, 4096, Placement{Nodes: 4, Replicas: 2})
}
