package paging

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/simcheck"
)

// TestPageTableIsPointerFree: a PTE is one unsigned word, so Space.ptes
// is an allocation the collector never scans and no Fetch is reachable
// from it by pointer.
func TestPageTableIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(pte(0))
	switch typ.Kind() {
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
	default:
		t.Fatalf("pte is a %v, want an unsigned integer", typ.Kind())
	}
	if typ.Size() > 8 {
		t.Fatalf("pte is %d bytes, want at most 8", typ.Size())
	}
}

// TestFramePoolMustFitIndexField: the word's index field names a frame
// while the page is present, so a pool with more frames than the field
// can count is rejected before anything is allocated.
func TestFramePoolMustFitIndexField(t *testing.T) {
	r := newRig(t, 1, nil)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.HasPrefix(msg, "paging: frame pool") || !strings.Contains(msg, "index") {
			t.Fatalf("NewManager on an oversized pool: recovered %q, want the frame-pool index panic", msg)
		}
	}()
	NewManager(r.env, DefaultConfig((1<<pteIndexBits+1)*PageSize))
}

// violation runs fn and returns the oracle it raised, "" if none.
func violation(fn func()) (oracle string) {
	defer func() {
		if r := recover(); r != nil {
			v, ok := simcheck.AsViolation(r)
			if !ok {
				panic(r)
			}
			oracle = v.Oracle
		}
	}()
	fn()
	return ""
}

// TestTransitionTable drives every edge from every state through move.
// The one legal from-state of each edge must leave the invariants clean;
// every other must raise the oracle the table names for that edge.
func TestTransitionTable(t *testing.T) {
	states := []pte{pageAbsent, pageFetching, pagePresent, pageWriteback}
	const vpn = 3
	for _, from := range states {
		for ed := range edges {
			ed := edge(ed)
			r := newRig(t, 4, nil)
			m := r.mgr
			sp := m.NewSpace("data", r.node.MustAlloc("data", 8*PageSize))

			// Walk the page to `from` along legal edges; rec is the
			// in-flight record it holds there, if any.
			var rec *Fetch
			if from != pageAbsent {
				rec = m.newFetch(sp, vpn, m.popFrame(), false, true)
				m.move(sp, vpn, edgeFetch, rec)
			}
			if from == pagePresent || from == pageWriteback {
				m.finish(rec, edgeInstall, nil)
				rec = nil
			}
			if from == pageWriteback {
				sp.DirtyPage(vpn)
				rec = m.newFetch(sp, vpn, sp.ptes[vpn].index(), true, false)
				m.move(sp, vpn, edgeWriteback, rec)
			}
			if got := sp.ptes[vpn].state(); got != from {
				t.Fatalf("setup reached state %d, want %d", got, from)
			}

			// The record the edge takes: the page's own where it has one,
			// else a fresh one of the edge's kind.
			f := rec
			switch {
			case ed == edgeEvict:
				f = nil
			case ed == edgeFetch || ed == edgeWriteback || f == nil:
				frame := int32(0)
				if from == pageAbsent && ed == edgeFetch {
					frame = m.popFrame()
				} else if from == pagePresent {
					frame = sp.ptes[vpn].index()
				}
				f = m.newFetch(sp, vpn, frame, ed == edgeWriteback || ed == edgeDurable, false)
			}
			got := violation(func() { m.move(sp, vpn, ed, f) })

			tab := edges[ed]
			if tab.from != from {
				if got != tab.oracle {
					t.Errorf("edge %d→%d taken from state %d raised %q, want %q", tab.from, tab.to, from, got, tab.oracle)
				}
				continue
			}
			if got != "" {
				t.Errorf("legal edge %d→%d raised %q", tab.from, tab.to, got)
				continue
			}
			if st := sp.ptes[vpn].state(); st != tab.to {
				t.Errorf("edge %d→%d left the page in state %d", tab.from, tab.to, st)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Errorf("edge %d→%d: %v", tab.from, tab.to, err)
			}
		}
	}
}

// TestFrameOraclesFireOnTheAbsentEdges: with the oracles armed, the
// edges that free a frame refuse a dirty page that was never written
// back and a frame that is already free.
func TestFrameOraclesFireOnTheAbsentEdges(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)
	r := newRig(t, 4, nil)
	m := r.mgr
	sp := m.NewSpace("data", r.node.MustAlloc("data", 8*PageSize))
	sp.Preload(0, 2*PageSize)

	sp.DirtyPage(0)
	if got := violation(func() { m.move(sp, 0, edgeEvict, nil) }); got != "paging/dirty-free" {
		t.Errorf("clean eviction of a dirty page raised %q, want paging/dirty-free", got)
	}

	// A fetch record whose frame is in the free pool: dropping it would
	// free the frame twice.
	f := m.newFetch(sp, 5, m.popFrame(), false, false)
	m.move(sp, 5, edgeFetch, f)
	m.freeFrame(f.frame)
	if got := violation(func() { m.move(sp, 5, edgeDrop, f) }); got != "paging/frame-double-free" {
		t.Errorf("dropping a fetch whose frame is free raised %q, want paging/frame-double-free", got)
	}

	// A fetch record holding a frame that a resident page maps.
	g := m.newFetch(sp, 6, m.popFrame(), false, false)
	m.move(sp, 6, edgeFetch, g)
	g.frame = sp.ptes[1].index()
	if got := violation(func() { m.move(sp, 6, edgeDrop, g) }); got != "paging/free-resident" {
		t.Errorf("dropping a fetch onto a mapped frame raised %q, want paging/free-resident", got)
	}
}

// TestCleanStoreOracleFires: with the oracles armed, a clean eviction
// passes a page whose bytes are as installed and refuses one that took
// a store without DirtyPage.
func TestCleanStoreOracleFires(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)
	r := newRig(t, 4, nil)
	m := r.mgr
	sp := m.NewSpace("data", r.node.MustAlloc("data", 8*PageSize))
	sp.Preload(0, 2*PageSize)
	if got := violation(func() { m.move(sp, 0, edgeEvict, nil) }); got != "" {
		t.Errorf("clean eviction of an untouched page raised %q", got)
	}
	view, _ := sp.TryPage(1, false)
	view[PageSize-1] ^= 1
	if got := violation(func() { m.move(sp, 1, edgeEvict, nil) }); got != "paging/clean-store" {
		t.Errorf("clean eviction of a page stored to without DirtyPage raised %q, want paging/clean-store", got)
	}
}

// TestFanoutCompletionOffWritebackIsAttributed: a replicated write-back's
// completion for a page that is not in write-back is a paging/wb-state
// violation with space, page and state — as on every other completion
// path — not a bare panic.
func TestFanoutCompletionOffWritebackIsAttributed(t *testing.T) {
	r := newRig(t, 4, nil)
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 8*PageSize))
	sp.Preload(0, PageSize)
	rec := r.mgr.newFetch(sp, 0, sp.ptes[0].index(), true, false)
	rec.pending = 0b11 // two replicas still owe an ack
	var v *simcheck.Violation
	func() {
		defer func() { v, _ = simcheck.AsViolation(recover()) }()
		r.mgr.CompleteOn(rec, nil, r.qp)
	}()
	if v == nil || v.Oracle != "paging/wb-state" {
		t.Fatalf("fan-out completion on a resident page: got %v, want a paging/wb-state violation", v)
	}
	if msg := v.Error(); !strings.Contains(msg, "space=data") || !strings.Contains(msg, "page=0") || !strings.Contains(msg, "state=") {
		t.Fatalf("violation is not attributable: %s", msg)
	}
}
