package migrate

import "repro/internal/simcheck"

// Check runs the migration audit oracles over the current owner
// tables and paging's last-home ledger. The end-of-run audit calls it after
// every scenario; tests can call it between operations. It is
// O(pages × replicas).
//
// Oracles:
//
//   - migrate/lost-page: every replica slot of every page must answer
//     a node inside the cluster — a page whose owner fell off the map
//     is unreachable.
//   - migrate/owner-dup: replica slots of one page must answer
//     pairwise-distinct nodes; a migration that landed the primary on
//     a replica's node silently halved the copy count.
//   - migrate/owner-table: for every page whose primary was ever
//     re-homed, the region's owner must be the last landed re-home
//     (migration flip or repair re-home, whichever came later) — the
//     oracle that catches a dropped Reown.
//   - migrate/state-machine: an idle engine must have no queued jobs
//     left behind (that it holds no copy while idle is by construction:
//     the copy in flight is a state of the engine, not a table).
func (mg *Migrator) Check() error {
	for _, s := range mg.m.Spaces() {
		reg := s.Region()
		if reg.Nodes() < 2 {
			continue
		}
		for vpn := int64(0); vpn < s.Pages(); vpn++ {
			var seen uint64
			for k := 0; k < reg.Replicas(); k++ {
				o := reg.OwnerAt(vpn, k)
				if o < 0 || o >= reg.Nodes() {
					return simcheck.New("migrate/lost-page",
						"replica slot answers a node outside the cluster").
						With("space", s.Name()).With("page", vpn).
						With("slot", k).With("node", o).With("nodes", reg.Nodes())
				}
				if seen&(1<<uint(o)) != 0 {
					return simcheck.New("migrate/owner-dup",
						"two replica slots of a page answer the same node").
						With("space", s.Name()).With("page", vpn).
						With("slot", k).With("node", o)
				}
				seen |= 1 << uint(o)
			}
			if dst, ok := s.LastHome(vpn); ok && reg.NodeOf(vpn) != dst {
				return simcheck.New("migrate/owner-table",
					"region owner disagrees with the last landed re-home").
					With("space", s.Name()).With("page", vpn).
					With("owner", reg.NodeOf(vpn)).With("want", dst)
			}
		}
	}
	if mg.Idle() && mg.Pending() != 0 {
		return simcheck.New("migrate/state-machine",
			"engine idle with jobs still queued").
			With("pending", mg.Pending())
	}
	return nil
}
