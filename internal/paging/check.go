package paging

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/simcheck"
)

// Paging-layer invariant oracles (see package simcheck), called behind
// simcheck.On() from the frame-free and failover paths:
//
//	paging/frame-double-free  a frame is never freed while already free
//	paging/dirty-free         a dirty page's frame is never freed before
//	                          its write-back succeeded (invariant 5)
//	paging/free-resident      a resident page's frame is never freed
//	paging/clean-store        a page evicted clean holds the bytes it
//	                          was installed with
//	paging/failover-tried     failover never revisits a tried replica
//	paging/failover-dead-read failover never routes to a dead replica
//
// The page-state oracles (paging/fetch-state, paging/wb-state,
// paging/pte-state) belong to the legal-edge table in pte.go and are
// always on. The O(frames+pages) sweep is CheckInvariants
// (invariants.go).

// checkFreeFrame runs in move just before a page's frame goes back to the
// pool: the page's word is already absent, the frame's owner fields are
// still valid.
func (m *Manager) checkFreeFrame(idx int32) {
	f := &m.frames[idx]
	if f.space < 0 {
		simcheck.Fail(simcheck.New("paging/frame-double-free",
			"frame freed while already in the free pool").
			With("frame", idx))
	}
	e := m.spaces[f.space].ptes[f.vpn]
	if e.dirty() {
		simcheck.Fail(simcheck.New("paging/dirty-free",
			"dirty page's frame freed before its write-back succeeded").
			With("space", m.spaces[f.space].name).With("page", f.vpn).
			With("frame", idx))
	}
	if e.state() == pagePresent && e.index() == idx {
		simcheck.Fail(simcheck.New("paging/free-resident",
			"resident page's frame freed out from under it").
			With("space", m.spaces[f.space].name).With("page", f.vpn).
			With("frame", idx))
	}
}

// pageSum is paging/clean-store's 64-bit hash of a page: FNV-1a's
// multiply over its little-endian words, so a change confined to one
// word always changes the sum.
func pageSum(p []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(p[i:])) * 1099511628211
	}
	return h
}

// checkCleanStore is paging/clean-store, run as (s, vpn) is evicted
// clean from frame fi: a page whose bytes changed since its install
// took a store without Space.DirtyPage, which real hardware would lose
// with the frame. cleanSums holds each frame's install-time sum on
// armed runs.
func (m *Manager) checkCleanStore(s *Space, vpn int64, fi int32) {
	if pageSum(s.page(vpn)) != m.cleanSums[fi] {
		simcheck.Fail(simcheck.New("paging/clean-store",
			"page evicted clean holds a store: written without DirtyPage").
			With("space", s.name).With("page", vpn).With("frame", fi).
			With("node", s.Owner(vpn, 0)))
	}
}

// CheckReplication is the repair-convergence oracle
// (paging/repair-converge): once the repairer's queue is drained, every
// page of a replicated region must have min(R, live nodes) distinct
// live copies. Unreplicated regions are skipped — with R == 1 a dead
// owner's pages are the accepted blast radius, not a repair failure.
// The bound assumes the single-crash fault model (at most one node dead
// at a time), under which a live source always exists while live ≥ R.
func (m *Manager) CheckReplication() error {
	if m.health == nil {
		return nil
	}
	for _, s := range m.spaces {
		reg := s.region
		if reg.Replicas() <= 1 {
			continue
		}
		live := 0
		for i := 0; i < reg.Nodes(); i++ {
			if m.health.Live(i) {
				live++
			}
		}
		want := reg.Replicas()
		if live < want {
			want = live
		}
		for vpn := int64(0); vpn < s.Pages(); vpn++ {
			var mask uint64
			for k := 0; k < reg.Replicas(); k++ {
				if o := s.Owner(vpn, k); m.health.Live(o) {
					mask |= 1 << uint(o)
				}
			}
			if got := bits.OnesCount64(mask); got < want {
				return simcheck.New("paging/repair-converge",
					"page under-replicated after repair queue drained").
					With("space", s.name).With("page", vpn).
					With("liveCopies", got).With("want", want)
			}
		}
	}
	return nil
}

// checkFailover runs in completeError just before a fetch is
// re-routed to replica node next.
func (m *Manager) checkFailover(f *Fetch, next int) {
	if f.tried&(1<<uint(next)) != 0 {
		simcheck.Fail(simcheck.New("paging/failover-tried",
			"failover re-routed a fetch to a replica it already tried").
			With("space", f.Space.name).With("page", f.VPN).
			With("node", next).With("tried", f.tried))
	}
	if !m.NodeLive(next) {
		simcheck.Fail(simcheck.New("paging/failover-dead-read",
			"failover re-routed a fetch to a node the detector declared dead").
			With("space", f.Space.name).With("page", f.VPN).
			With("node", next))
	}
}
