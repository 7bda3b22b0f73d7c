package core

import "fmt"

// Placement is a shard-placement policy: a pure function from page
// number to owning memory node. Implementations must be deterministic
// and stateless so the page→node mapping is stable for the lifetime of
// a run (regions are not re-striped).
type Placement interface {
	// Name identifies the policy in logs and experiment output.
	Name() string
	// Place returns the owning node (in [0, nodes)) for a page.
	Place(page int64, nodes int) int
}

// Stripe is the default placement: page p lives on node p mod N. For
// any aligned sequential range the per-node page counts differ by at
// most one, so sequential scans load every link evenly.
var Stripe Placement = stripePlacement{}

type stripePlacement struct{}

func (stripePlacement) Name() string { return "stripe" }

func (stripePlacement) Place(page int64, nodes int) int {
	return int(page % int64(nodes))
}

// Block is a coarse placement: pages are grouped into fixed-size
// contiguous blocks of `pages` pages and blocks are striped across
// nodes round-robin. Unlike Stripe's page-granular interleave, a
// skewed access pattern concentrates on whole blocks — and therefore
// on single nodes — which is exactly the imbalance the migration
// subsystem exists to fix.
func Block(pages int64) Placement {
	if pages < 1 {
		pages = 1
	}
	return blockPlacement{pages}
}

type blockPlacement struct{ pages int64 }

func (b blockPlacement) Name() string { return fmt.Sprintf("block%d", b.pages) }

func (b blockPlacement) Place(page int64, nodes int) int {
	return int((page / b.pages) % int64(nodes))
}

// ShardMap binds a placement policy to a concrete node count: the
// shard map of one assembled system. It is the single source of truth
// for static page placement — memnode regions, paging routes, and
// per-node fault targeting all derive from it. It is what memnode
// capacity accounting keys on and never changes during a run; the
// current owner of a page that repair or migration re-homed is the
// region's to answer (memnode.Region.OwnerAt).
type ShardMap struct {
	nodes    int
	pol      Placement
	replicas int
}

// NewShardMap returns a shard map over n nodes (n < 1 is treated as
// 1). A nil policy selects Stripe. The map starts unreplicated
// (replication factor 1); SetReplicas raises it.
func NewShardMap(n int, pol Placement) *ShardMap {
	if n < 1 {
		n = 1
	}
	if pol == nil {
		pol = Stripe
	}
	return &ShardMap{nodes: n, pol: pol, replicas: 1}
}

// Nodes returns the number of memory nodes.
func (m *ShardMap) Nodes() int { return m.nodes }

// SetReplicas sets the replication factor: each page gets a primary
// plus r-1 replicas on distinct nodes. r is clamped to [1, Nodes()] —
// more copies than nodes cannot be placed on distinct nodes.
func (m *ShardMap) SetReplicas(r int) {
	if r < 1 {
		r = 1
	}
	if r > m.nodes {
		r = m.nodes
	}
	m.replicas = r
}

// Replicas returns the replication factor (1 = unreplicated).
func (m *ShardMap) Replicas() int { return m.replicas }

// Replica returns the node holding the k-th copy of a page: k = 0 is
// the primary (Node), and the k-th replica lives k nodes after the
// primary in ring order. For k < Replicas() <= Nodes() the copies land
// on pairwise-distinct nodes under any placement policy.
func (m *ShardMap) Replica(page int64, k int) int {
	if k == 0 || m.nodes == 1 {
		return m.Node(page)
	}
	if k < 0 || k >= m.replicas {
		panic(fmt.Sprintf("core: replica index %d outside factor %d", k, m.replicas))
	}
	return (m.Node(page) + k) % m.nodes
}

// ReplicaAt returns the (page, k) → node function in the form
// memnode.NewClusterReplicated consumes.
func (m *ShardMap) ReplicaAt() func(page int64, k int) int { return m.Replica }

// Policy returns the placement policy.
func (m *ShardMap) Policy() Placement { return m.pol }

// Node returns the owning node for a page. A single-node map answers
// without consulting the policy.
func (m *ShardMap) Node(page int64) int {
	if m.nodes == 1 {
		return 0
	}
	n := m.pol.Place(page, m.nodes)
	if n < 0 || n >= m.nodes {
		panic(fmt.Sprintf("core: placement %q sent page %d to node %d of %d",
			m.pol.Name(), page, n, m.nodes))
	}
	return n
}

// Place returns the page→node function in the form memnode.NewCluster
// consumes.
func (m *ShardMap) Place() func(page int64) int { return m.Node }
