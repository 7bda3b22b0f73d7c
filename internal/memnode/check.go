package memnode

import "repro/internal/simcheck"

// CheckAllocation is the memnode capacity oracle (memnode/capacity):
// it recomputes, from each region's *static* placement, how many bytes
// every node should have charged, and compares against the node's
// running `allocated` counter. Every replica copy of a page must be
// charged to its owning node — an undercharge means a replicated
// region consumes bytes the admission check never saw.
//
// The recomputation deliberately ignores Reown overrides: repair
// re-homes a copy without moving its accounting (the dead node's
// charge is the blast radius the operator already paid for), so the
// static placement is the ledger of record. Migration is the one
// exception — it moves the charge explicitly via MoveCharge, and those
// net per-node deltas are added on top of the static expectation.
func (c *Cluster) CheckAllocation() error {
	expect := make([]int64, len(c.nodes))
	for i := range c.moved {
		expect[i] += c.moved[i]
	}
	seen := make(map[*Region]bool)
	for i, n := range c.nodes {
		for _, r := range n.regions {
			if r.pl.Nodes == 1 {
				// A region allocated on a single Node (the single-node
				// Alloc shortcut, or setup code allocating directly on a
				// member node): wholly charged to the node whose table
				// holds it.
				expect[i] += r.Size()
				continue
			}
			// Sharded regions register the same *Region on every node;
			// distribute its pages once.
			if seen[r] {
				continue
			}
			seen[r] = true
			pages := (r.Size() + c.pageSize - 1) / c.pageSize
			for p := int64(0); p < pages; p++ {
				b := c.pageSize
				if p == pages-1 {
					b = r.Size() - p*c.pageSize
				}
				for k := 0; k < r.pl.Replicas; k++ {
					expect[r.pl.Owner(p, k)] += b
				}
			}
		}
	}
	for i, n := range c.nodes {
		if n.allocated != expect[i] {
			return simcheck.New("memnode/capacity",
				"node's charged bytes disagree with replica-aware placement").
				With("node", i).With("charged", n.allocated).
				With("expected", expect[i])
		}
		if n.allocated > n.capacity {
			return simcheck.New("memnode/over-capacity",
				"node charged beyond its capacity").
				With("node", i).With("charged", n.allocated).
				With("capacity", n.capacity)
		}
	}
	return nil
}
