package paging

import (
	"encoding/binary"
	"fmt"
)

// ensure makes the page containing off resident under thread t, blocking
// (per the thread's wait policy) as needed, and returns the frame bytes
// for that page.
func (s *Space) ensure(t Thread, vpn int64) []byte {
	e := &s.ptes[vpn]
	if e.state() == pagePresent {
		s.mgr.touch(e)
		s.mgr.leapRecord(s, vpn)
		s.mgr.Hits.Inc()
		if s.mgr.migr != nil {
			s.mgr.migr.RecordTouch(s, vpn)
		}
		return s.mgr.frames[e.index()].data
	}
	// Loop: under memory pressure the reclaimer can evict the page again
	// during the handler's post-fetch map step, in which case the access
	// simply refaults — as on real hardware.
	for e.state() != pagePresent {
		t.WaitPage(s, vpn)
	}
	s.mgr.touch(e)
	return s.mgr.frames[e.index()].data
}

// ensureMut is ensure for a store: the page is marked dirty and its
// frame materialized (a clean zero-copy install aliases the backing
// region, which must keep holding the clean bytes once the local copy
// diverges) before the caller writes through the returned view.
func (s *Space) ensureMut(t Thread, vpn int64) []byte {
	s.ensure(t, vpn)
	return s.DirtyPage(vpn)
}

// Load copies len(buf) bytes at offset off into buf, faulting pages in as
// needed. Accesses may span page boundaries.
func (s *Space) Load(t Thread, off int64, buf []byte) {
	for len(buf) > 0 {
		vpn := off >> PageShift
		po := off & (PageSize - 1)
		n := PageSize - po
		if int64(len(buf)) < n {
			n = int64(len(buf))
		}
		page := s.ensure(t, vpn)
		copy(buf[:n], page[po:po+n])
		buf = buf[n:]
		off += n
	}
}

// Store copies data into the space at offset off, faulting pages in as
// needed and marking them dirty (write-allocate, write-back).
func (s *Space) Store(t Thread, off int64, data []byte) {
	for len(data) > 0 {
		vpn := off >> PageShift
		po := off & (PageSize - 1)
		n := PageSize - po
		if int64(len(data)) < n {
			n = int64(len(data))
		}
		page := s.ensureMut(t, vpn)
		copy(page[po:po+n], data[:n])
		data = data[n:]
		off += n
	}
}

// LoadU64 reads a little-endian uint64 at off.
func (s *Space) LoadU64(t Thread, off int64) uint64 {
	if off&(PageSize-1) <= PageSize-8 {
		vpn := off >> PageShift
		page := s.ensure(t, vpn)
		po := off & (PageSize - 1)
		return binary.LittleEndian.Uint64(page[po : po+8])
	}
	var b [8]byte
	s.Load(t, off, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// TryPage is the non-blocking residency probe behind the scheduler's
// flat unithread tier: if vpn is resident it returns the frame bytes,
// otherwise (nil, false) and the caller drives the fault itself through
// Manager.RequestPage. Counter parity with ensure is exact: a first
// access (retry=false) that hits takes ensure's present path — touch,
// Leap history, Hits — while the re-probe after a fault (retry=true)
// takes ensure's post-WaitPage exit, which touches only. A retry that
// misses means the page was reclaimed inside the map-cost window; the
// caller refaults from scratch, as ensure's loop does.
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
	return s.mgr.frames[e.index()].data, true
}

// DirtyPage marks a resident page dirty (write-allocate, write-back)
// and returns its frame bytes — the store half of a TryPage-based
// access. Callers must write through the returned view, not a slice
// from an earlier TryPage: materializing a zero-copy alias moves the
// frame's bytes, and writes must land in the private copy, never the
// backing region.
func (s *Space) DirtyPage(vpn int64) []byte {
	e := &s.ptes[vpn]
	*e |= pteDirty
	s.mgr.materialize(e.index())
	return s.mgr.frames[e.index()].data
}

// Preload makes the byte range [off, off+n) resident without going
// through a thread's wait policy or the RDMA fabric; it is a setup-time
// facility for loading phases that the paper performs before measurement
// (database load, cache warm-up). It must not be called while the
// simulation is serving requests. Preloaded pages are clean, and each is
// installed the way a fetch installs it: the frame aliases the page's
// region view, and the first store materializes a private copy.
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
		// frame, and the install aliases the region view a READ would
		// have moved.
		f := m.newFetch(s, vpn, m.popFrame(), false, false)
		m.move(s, vpn, edgeFetch, f)
		f.src = s.region.Slice(vpn*PageSize, PageSize)
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
// the space is resident or has I/O in flight: the cache would go stale,
// and a zero-copy install aliases these very bytes. The guard is one pass
// over the page table, so a build calls it once per space and keeps the
// view in a local variable.
func (s *Space) SetupBytes() []byte {
	for vpn, e := range s.ptes {
		if e.state() != pageAbsent {
			panic(fmt.Sprintf("paging: set-up write to %s would bypass cached page %d", s.name, vpn))
		}
	}
	return s.region.Data
}

// ReadDirect loads bytes straight from wherever they currently live
// (frame if resident, backing region otherwise), bypassing timing.
// Verification/test use only.
func (s *Space) ReadDirect(off int64, buf []byte) {
	for len(buf) > 0 {
		vpn := off >> PageShift
		po := off & (PageSize - 1)
		n := PageSize - po
		if int64(len(buf)) < n {
			n = int64(len(buf))
		}
		switch e := s.ptes[vpn]; e.state() {
		case pagePresent:
			copy(buf[:n], s.mgr.frames[e.index()].data[po:po+n])
		case pageWriteback:
			copy(buf[:n], s.mgr.frames[s.mgr.inflight(e).frame].data[po:po+n])
		default:
			copy(buf[:n], s.region.Slice(off, n))
		}
		buf = buf[n:]
		off += n
	}
}
