package paging

import "repro/internal/simcheck"

// CheckInvariants verifies the paging subsystem's structural invariants.
// Tests call it between operations; the end-of-run audit calls it after
// every scenario. It is O(frames + pages). Failures come back as
// *simcheck.Violation values carrying the frame id, page, and owner
// node, so a swarm run can print an attributable one-liner instead of a
// bare string.
//
// Invariants:
//  1. A frame is unowned (space == -1) exactly while it is on the free
//     list, and appears there once.
//  2. Every resident PTE points at a frame that points back at it.
//  3. No two PTEs share a frame.
//  4. Fetching/write-back PTEs carry the slot of a live record for the
//     right page.
//  5. Dirty data is never lost to fault recovery: a dirty page is
//     resident or in write-back (its frame held, not freed, not in the
//     free list) until a write-back *succeeds* — an absent-but-dirty
//     page would mean an eviction was observed before the memory node
//     durably held the bytes.
//
// The owner table's oracles, run on every audit, repair-only runs
// included:
//   - migrate/lost-page: every replica slot of every page answers a
//     node inside the cluster — a page whose owner fell off the map is
//     unreachable.
//   - migrate/owner-dup: the replica slots of one page answer pairwise
//     distinct nodes; a re-home that landed a slot on another slot's
//     node silently halved the copy count.
//   - migrate/state-machine: an idle engine has no queued jobs left
//     behind (that it holds no copy while idle is by construction: the
//     copy in flight is a state of the engine, not a table).
//
// A space whose table was never written answers the placement, distinct
// and in range by construction (memnode.Placement), so only written
// tables are swept. Whether a table follows its landing
// (migrate/owner-table), and migrate/stale-read, are checked by the
// engine as the landing happens (Rehomer.land).
func (m *Manager) CheckInvariants() error {
	inFree := make(map[int32]bool, len(m.free))
	for _, fi := range m.free {
		if inFree[fi] {
			return simcheck.New("paging/free-list-dup",
				"frame appears twice in free list").With("frame", fi)
		}
		inFree[fi] = true
	}
	for i := range m.frames {
		f := &m.frames[i]
		if inFree[int32(i)] && f.space != -1 {
			return simcheck.New("paging/free-frame-owned",
				"free frame still owned by a space").
				With("frame", i).With("space", f.space)
		}
		if (f.space == -1) != inFree[int32(i)] {
			return simcheck.New("paging/free-list-state",
				"frame ownership disagrees with free-list membership").
				With("frame", i).With("space", f.space).
				With("inFree", inFree[int32(i)])
		}
	}
	owner := make(map[int32][2]int64) // frame -> (space, vpn)
	for _, s := range m.spaces {
		for vpn := range s.ptes {
			e := s.ptes[vpn]
			var fi int32
			switch e.state() {
			case pageAbsent:
				if e.dirty() {
					return simcheck.New("paging/dirty-free",
						"page absent while dirty: reclaimed before write-back succeeded").
						With("space", s.name).With("page", vpn).
						With("node", s.Owner(int64(vpn), 0))
				}
				if e != pageAbsent {
					return simcheck.New("paging/absent-fetch",
						"absent page still names a frame or a fetch record").
						With("space", s.name).With("page", vpn).With("word", uint32(e))
				}
				continue
			case pagePresent:
				fi = e.index()
				f := &m.frames[fi]
				if f.space != s.id || f.vpn != int64(vpn) {
					return simcheck.New("paging/back-pointer",
						"resident page's frame back-pointer mismatch").
						With("space", s.name).With("page", vpn).With("frame", fi).
						With("frameSpace", f.space).With("frameVPN", f.vpn)
				}
			case pageFetching, pageWriteback:
				if int(e.index()) >= len(m.fetches) || m.inflight(e).Space == nil {
					return simcheck.New("paging/inflight-no-fetch",
						"in-flight page without fetch record").
						With("space", s.name).With("page", vpn).With("state", uint8(e.state()))
				}
				rec := m.inflight(e)
				if rec.Space != s || rec.VPN != int64(vpn) {
					return simcheck.New("paging/fetch-mismatch",
						"in-flight page's fetch record names the wrong page").
						With("space", s.name).With("page", vpn).
						With("fetchPage", rec.VPN).With("node", rec.node)
				}
				fi = rec.frame
				if e.state() == pageWriteback && inFree[fi] {
					return simcheck.New("paging/wb-frame-freed",
						"write-back frame is in the free list").
						With("space", s.name).With("page", vpn).
						With("frame", fi).With("node", rec.node)
				}
			}
			if prev, dup := owner[fi]; dup {
				return simcheck.New("paging/frame-shared",
					"frame held by two pages").
					With("frame", fi).
					With("firstSpace", prev[0]).With("firstPage", prev[1]).
					With("space", s.id).With("page", vpn)
			}
			owner[fi] = [2]int64{int64(s.id), int64(vpn)}
		}
	}
	for _, s := range m.spaces {
		if err := s.checkOwners(); err != nil {
			return err
		}
	}
	for _, e := range m.rehomers {
		if e.Idle() && e.Pending() != 0 {
			return simcheck.New("migrate/state-machine",
				"engine idle with jobs still queued").
				With("engine", e.t.Name()).With("pending", e.Pending())
		}
	}
	return nil
}

// checkOwners runs migrate/lost-page and migrate/owner-dup over the
// space's owner table.
func (s *Space) checkOwners() error {
	reps, nodes := s.region.Replicas(), s.region.Nodes()
	for i := 0; i < len(s.owners); i += reps {
		vpn := int64(i / reps)
		var seen uint64
		for k, o := range s.owners[i : i+reps] {
			if int(o) >= nodes {
				return simcheck.New("migrate/lost-page",
					"replica slot answers a node outside the cluster").
					With("space", s.name).With("page", vpn).
					With("slot", k).With("node", int(o)).With("nodes", nodes)
			}
			if seen&(1<<o) != 0 {
				return simcheck.New("migrate/owner-dup",
					"two replica slots of a page answer the same node").
					With("space", s.name).With("page", vpn).
					With("slot", k).With("node", int(o))
			}
			seen |= 1 << o
		}
	}
	return nil
}
