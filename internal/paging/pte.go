package paging

import "repro/internal/simcheck"

// pte is a page-table entry: a page's whole state in one pointer-free
// word, so the fault handler reads it in a single load and a page table
// is an allocation the collector never scans.
//
//	bits 0–1   state: pageAbsent, pageFetching, pagePresent, pageWriteback
//	bit  2     dirty: the page holds stores the memory node does not
//	bit  3     ref: accessed since the CLOCK hand last passed
//	bit  4     picked: chosen as a victim in the current reclaim round
//	bits 5–31  index: the frame while present; while fetching or in
//	           write-back, the slot of the in-flight record in
//	           Manager.fetches (which names the frame)
//
// The zero word is an absent page. move is the only function that stores
// a state; the flag bits are set and cleared in place by touch, the
// store accessors and clockSelect.
type pte uint32

const (
	pageAbsent pte = iota
	pageFetching
	pagePresent
	pageWriteback
	pteState pte = 3

	pteDirty  pte = 1 << 2
	pteRef    pte = 1 << 3
	ptePicked pte = 1 << 4

	pteIndexShift = 5
	pteIndexBits  = 32 - pteIndexShift
)

func (e pte) state() pte   { return e & pteState }
func (e pte) dirty() bool  { return e&pteDirty != 0 }
func (e pte) index() int32 { return int32(e >> pteIndexShift) }

// edge names one legal page-state transition.
type edge uint8

const (
	edgeFetch     edge = iota // a fetch record takes the page and a frame
	edgeInstall               // the READ landed: the page maps its frame
	edgeDrop                  // the fetch was dropped or abandoned
	edgeWriteback             // the reclaimer starts writing the dirty page back
	edgeEvict                 // the reclaimer evicts the clean page
	edgeDurable               // the write-back is durable
)

// edges is the legal-edge table. A page takes an edge only from the
// edge's from-state; anything else raises the edge's oracle — named for
// who takes it: a fetch completion (paging/fetch-state), a write-back
// completion (paging/wb-state), or the fault handler and the reclaimer
// acting on the page table themselves (paging/pte-state).
var edges = [...]struct {
	from, to pte
	oracle   string
}{
	edgeFetch:     {pageAbsent, pageFetching, "paging/pte-state"},
	edgeInstall:   {pageFetching, pagePresent, "paging/fetch-state"},
	edgeDrop:      {pageFetching, pageAbsent, "paging/fetch-state"},
	edgeWriteback: {pagePresent, pageWriteback, "paging/pte-state"},
	edgeEvict:     {pagePresent, pageAbsent, "paging/pte-state"},
	edgeDurable:   {pageWriteback, pageAbsent, "paging/wb-state"},
}

// expect raises ed's oracle unless (s, vpn) is in the state ed leaves
// from. Always on: it runs once per completion and per transition, never
// on a hit.
func (m *Manager) expect(s *Space, vpn int64, ed edge) {
	if from, want := s.ptes[vpn].state(), edges[ed].from; from != want {
		simcheck.Fail(simcheck.New(edges[ed].oracle, "page is not in the state this transition leaves from").
			With("space", s.name).With("page", vpn).
			With("state", uint8(from)).With("want", uint8(want)))
	}
}

// move takes (s, vpn) along ed. f is the in-flight record whose life the
// edge begins or ends; a clean eviction has none. The three edges into
// pageAbsent give the page's frame back to the pool, under the frame
// oracles.
func (m *Manager) move(s *Space, vpn int64, ed edge, f *Fetch) {
	m.expect(s, vpn, ed)
	e := &s.ptes[vpn]
	switch edges[ed].to {
	case pageFetching:
		*e = pageFetching | pte(f.slot)<<pteIndexShift
		fr := &m.frames[f.frame]
		fr.space, fr.vpn = s.id, vpn
	case pagePresent:
		*e = pagePresent | pteRef | pte(f.frame)<<pteIndexShift
		if m.cleanSums != nil {
			m.cleanSums[f.frame] = pageSum(s.page(vpn))
		}
		m.installed(f.frame)
	case pageWriteback:
		*e = pageWriteback | *e&pteDirty | pte(f.slot)<<pteIndexShift
	case pageAbsent:
		fi := e.index()
		if f != nil {
			fi = f.frame
		}
		// Only a durable write-back cleans the page. A dirty bit that
		// survives into the absent word is the lost-update bug the
		// paging/dirty-free oracles exist for.
		*e &= pteDirty
		if ed == edgeDurable {
			*e = pageAbsent
		}
		if ed == edgeEvict && m.cleanSums != nil {
			m.checkCleanStore(s, vpn, fi)
		}
		if simcheck.On() {
			m.checkFreeFrame(fi)
		}
		m.freeFrame(fi)
	}
}

// inflight returns the record of a fetching or write-back page.
func (m *Manager) inflight(e pte) *Fetch { return m.fetches[e.index()] }
