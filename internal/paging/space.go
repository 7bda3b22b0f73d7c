package paging

import (
	"encoding/binary"
	"fmt"

	"repro/internal/rdma"
)

// ensure makes page vpn resident under thread t and returns its bytes:
// TryPage's hit, or t's waits until the re-probe hits (a page
// reclaimed inside the map-cost window refaults, as on real hardware).
func (s *Space) ensure(t Thread, vpn int64) []byte {
	page, ok := s.TryPage(vpn, false)
	for !ok {
		t.WaitPage(s, vpn)
		page, ok = s.TryPage(vpn, true)
	}
	return page
}

// LoadU64 reads a little-endian uint64 at off under a blocking thread,
// for the benchmark rigs (benchmark/rigs.go) until they move to tasks.
func (s *Space) LoadU64(t Thread, off int64) uint64 {
	po := off & (PageSize - 1)
	page := s.ensure(t, off>>PageShift)
	if po <= PageSize-8 {
		return binary.LittleEndian.Uint64(page[po : po+8])
	}
	var b [8]byte
	n := copy(b[:], page[po:])
	copy(b[n:], s.ensure(t, off>>PageShift+1))
	return binary.LittleEndian.Uint64(b[:])
}

// TryPage is the one residency probe of a paged access: if vpn is
// resident it returns the page's bytes, otherwise (nil, false) and the
// caller drives the fault itself through Manager.TryRequestPage. A first
// access (retry=false) that hits is a hit — touch, Leap history, Hits —
// while the re-probe after a fault (retry=true) touches only: the fault
// was the access. A retry that misses means the page was reclaimed
// inside the map-cost window; the caller refaults from scratch.
func (s *Space) TryPage(vpn int64, retry bool) ([]byte, bool) {
	e := &s.ptes[vpn]
	if e.state() != pagePresent {
		return nil, false
	}
	s.mgr.touch(e)
	if !retry {
		s.mgr.leapRecord(s, vpn)
		s.mgr.Hits.Inc()
		if s.mgr.migr != nil {
			s.mgr.migr.RecordTouch(s, vpn)
		}
	}
	return s.page(vpn), true
}

// DirtyPage marks a resident page dirty (write-allocate, write-back)
// and returns its bytes — the store half of a TryPage-based access,
// the same view TryPage returns. The store lands in the region in
// place; the dirty bit is what makes the reclaimer write the page back,
// so a store made without DirtyPage is a lost update on real hardware
// (the paging/clean-store oracle sees it at the clean eviction).
func (s *Space) DirtyPage(vpn int64) []byte {
	if e := &s.ptes[vpn]; !e.dirty() {
		*e |= pteDirty
		s.mgr.Dirtied.Inc()
	}
	return s.page(vpn)
}

// page returns page vpn's bytes: its view of the backing region, the
// page's one host copy, resident or not.
func (s *Space) page(vpn int64) []byte {
	return s.region.Data[vpn<<PageShift : (vpn+1)<<PageShift]
}

// remote returns page vpn's region view as the remote side of a verb
// posted on qp toward node, so a bounds violation names both.
func (s *Space) remote(vpn int64, node int, qp *rdma.QP) []byte {
	return s.region.SliceFor(vpn*PageSize, PageSize, node, qp.Name())
}

// Preload makes the byte range [off, off+n) resident without going
// through a thread's wait policy or the RDMA fabric; it is a setup-time
// facility for loading phases that the paper performs before measurement
// (database load, cache warm-up). It must not be called while the
// simulation is serving requests. Preloaded pages are clean, and each is
// installed the way a fetch installs it, in place: warm-up copies
// nothing.
func (s *Space) Preload(off, n int64) {
	first := off >> PageShift
	last := (off + n - 1) >> PageShift
	m := s.mgr
	for vpn := first; vpn <= last; vpn++ {
		switch s.ptes[vpn].state() {
		case pagePresent:
			continue
		case pageFetching, pageWriteback:
			panic("paging: Preload on page with in-flight I/O")
		}
		if len(m.free) == 0 {
			return // pool exhausted: remaining pages stay remote
		}
		// A fetch that needs no fabric: the record takes the page and a
		// frame, and the install maps the page.
		f := m.newFetch(s, vpn, m.popFrame(), false, false)
		m.move(s, vpn, edgeFetch, f)
		m.finish(f, edgeInstall, nil)
	}
}

// WarmSpaces preloads a prefix of each space, in proportion to its share
// of the app's total bytes (a lone space takes it all), up to the frame
// pool's steady-state occupancy — the pool minus the reclaim headroom: the
// paper's "local cache holds X % of the working set" starting condition.
func (m *Manager) WarmSpaces(total int64, spaces ...*Space) {
	budget := int64(float64(len(m.frames))*(1-m.cfg.ReclaimThreshold-0.02)) * PageSize
	for _, sp := range spaces {
		share := budget
		if sp.Size() != total {
			share = int64(float64(budget)*float64(sp.Size())/float64(total)) / PageSize * PageSize
		}
		if share = min(share, sp.Size()); share > 0 {
			sp.Preload(0, share)
		}
	}
}

// SetupBytes returns the space's backing bytes, for writing its data set
// at set-up time, bypassing paging and timing. It panics if any page of
// the space is resident or has I/O in flight: a resident page's bytes
// are these very bytes, and a set-up write would skip its dirty bit and
// its write-back. The guard is one pass over the page table, so a build
// calls it once per space and keeps the view in a local variable.
func (s *Space) SetupBytes() []byte {
	for vpn, e := range s.ptes {
		if e.state() != pageAbsent {
			panic(fmt.Sprintf("paging: set-up write to %s would bypass cached page %d", s.name, vpn))
		}
	}
	return s.region.Data
}

// ReadDirect loads bytes at off from the region, which holds every
// page's one host copy, resident or not, bypassing timing.
// Verification/test use only.
func (s *Space) ReadDirect(off int64, buf []byte) {
	copy(buf, s.region.Slice(off, int64(len(buf))))
}
