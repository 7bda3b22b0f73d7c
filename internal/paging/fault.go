package paging

import (
	"fmt"

	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/trace"
)

// FetchError is delivered to waiters when a demand fetch exhausts its
// bounded retries (Config.MaxFetchAttempts). It is the simulated
// analogue of SIGBUS on a failed page-in: the scheduler converts it
// into a failed request instead of hanging the unithread.
type FetchError struct {
	Space    string
	VPN      int64
	Attempts int
	Err      error // the final completion error
}

func (e *FetchError) Error() string {
	return fmt.Sprintf("paging: fetch of %s page %d failed after %d attempts: %v",
		e.Space, e.VPN, e.Attempts, e.Err)
}

func (e *FetchError) Unwrap() error { return e.Err }

// Fetch is the record of an in-flight page movement: a demand fetch, a
// prefetch, or an eviction write-back. It is the cookie carried by the
// RDMA completion; the polling thread hands it back to the manager via
// Complete. Records live in the manager's slab for the whole run and
// are recycled; the page table reaches a page's record by slot, never
// by pointer, while the page is fetching or in write-back.
type Fetch struct {
	Space *Space
	VPN   int64

	slot      int32 // index in Manager.fetches, fixed for the record's life
	frame     int32
	writeback bool
	demand    bool

	// waiters are invoked (in completion context) once the page becomes
	// present (fetch) or absent again (write-back finished). The
	// scheduler registers a closure that marks the blocked unithread
	// runnable. A non-nil argument reports that the fetch was abandoned
	// (*FetchError); the page did not change state in the waiter's
	// favour and the access must fail.
	waiters []func(error)

	// qp is where a fetch's last post went; retries re-post there.
	// attempts counts posts so far; firstFailAt is the sim time of the
	// first completion error (-1 while unfailed), for recovery-latency
	// accounting.
	qp          *rdma.QP
	attempts    int
	firstFailAt int64

	// node is the memory node of a fetch's last post (the copy it is
	// currently reading), or of a write-back's slot-waited first post;
	// tried is the bitmask of nodes a fetch already attempted, so
	// failover visits each owner at most once.
	node  int
	tried uint64

	// Write-back fan-out state (zero for a fetch): pending is the bitmask
	// of target nodes still owed a durable ack, acked the nodes that
	// delivered one. A write-back is terminal only when pending is empty
	// and at least one copy acked; an unreplicated page's is the one-bit
	// case.
	pending uint64
	acked   uint64
}

// newFetch takes a Fetch from the manager's free list (or grows the slab
// by one) and initializes it. Recycled records keep their slot and their
// waiters backing array.
func (m *Manager) newFetch(s *Space, vpn int64, frame int32, writeback, demand bool) *Fetch {
	var f *Fetch
	if n := len(m.freeFetches); n > 0 {
		f = m.freeFetches[n-1]
		m.freeFetches[n-1] = nil
		m.freeFetches = m.freeFetches[:n-1]
	} else {
		f = &Fetch{slot: int32(len(m.fetches))}
		m.fetches = append(m.fetches, f)
	}
	f.Space, f.VPN = s, vpn
	f.frame, f.writeback, f.demand = frame, writeback, demand
	f.qp, f.attempts, f.firstFailAt = nil, 1, -1
	f.node, f.tried, f.pending, f.acked = 0, 0, 0, 0
	return f
}

// recycleFetch returns a finished Fetch to the free list. The caller must
// guarantee no reference survives (PTE moved on, completion consumed).
func (m *Manager) recycleFetch(f *Fetch) {
	for i := range f.waiters {
		f.waiters[i] = nil // drop closure references, keep the array
	}
	f.waiters = f.waiters[:0]
	f.Space = nil
	f.qp = nil
	m.freeFetches = append(m.freeFetches, f)
}

// PageStatus is the outcome of one TryRequestPage call.
type PageStatus int

const (
	// PageResident: the page is present; the access can proceed.
	PageResident PageStatus = iota
	// PagePending: onReady is registered and will be invoked when the
	// page's state changes in the caller's favour.
	PagePending
	// PageStalled: the frame pool is empty or the QP cannot take a post.
	// The caller's waiter is registered there; when it is woken the
	// caller repeats the call with the same FaultCall.
	PageStalled
)

// FaultCall carries one TryRequestPage call across its stalls. The zero
// value starts a call; the call is over when the status is not
// PageStalled, and the value is zero again.
type FaultCall struct {
	alloc bool   // the miss is counted; the call waits for a frame
	fetch *Fetch // the page is marked fetching; the read is not posted yet
}

// QPSource names the queue pairs a faulting context issues page
// movements on: the carrying worker's, one per memory node.
type QPSource interface {
	QP(node int) *rdma.QP
}

// TryRequestPage drives one step of the fault state machine for (s, vpn)
// without ever blocking. PageResident means the access can proceed.
// PagePending means onReady will be invoked when the page's state changes
// in the caller's favour; the caller waits for it and then calls again
// with a fresh FaultCall — transitions like write-back-then-refetch need
// several rounds. onReady receives a non-nil *FetchError when the fetch
// was abandoned after bounded retries; the caller must then fail the
// access instead of calling again. PageStalled is the stall the paper
// observes when the pool runs dry or the NIC cannot match host
// processing (§5.2): w is registered with the frame pool or the QP and
// is armed when a frame or slot may be free (Mesa semantics: the firing
// means "call again", not "yours").
//
// The demand flag marks a real miss (first round of a fault) for
// accounting.
func (m *Manager) TryRequestPage(c *FaultCall, w *sim.Task, q QPSource, s *Space, vpn int64, onReady func(error), demand bool) PageStatus {
	if c.fetch != nil {
		return m.postFetch(c, w, q)
	}
	e := &s.ptes[vpn]
	if !c.alloc {
		switch e.state() {
		case pagePresent:
			m.touch(e)
			return PageResident

		case pageFetching:
			// Someone else (or a prefetch) is already fetching this page;
			// piggyback on their completion.
			f := m.inflight(*e)
			if demand {
				m.FetchWaits.Inc()
				if !f.demand {
					m.PrefetchHits.Inc()
				}
			}
			f.waiters = append(f.waiters, onReady)
			return PagePending

		case pageWriteback:
			// The page is being written back; once the write-back completes
			// the PTE becomes absent and the caller refaults.
			f := m.inflight(*e)
			f.waiters = append(f.waiters, onReady)
			return PagePending
		}
		if demand {
			m.Faults.Inc()
		}
		c.alloc = true
	}
	fr, ok := m.allocFrame(w)
	if !ok {
		return PageStalled
	}
	c.alloc = false
	// The call may have waited for the frame; the page state can have
	// changed meanwhile (another thread may have fetched it).
	if e.state() != pageAbsent {
		m.freeFrame(fr)
		return m.TryRequestPage(c, w, q, s, vpn, onReady, false)
	}
	node := m.fetchNode(s, vpn)
	f := m.startFetch(s, vpn, fr, node, q.QP(node), demand)
	f.waiters = append(f.waiters, onReady)
	c.fetch = f
	return m.postFetch(c, w, q)
}

// RequestPage is TryRequestPage for a harness thread with a process of
// its own, kept for the benchmark rigs (benchmark/rigs.go) until they
// move to tasks: it registers the task of t's process at every stall and
// parks the process until it fires, and reports whether the page is
// resident (true) or onReady is registered.
func (m *Manager) RequestPage(t interface {
	QPSource
	Proc() *sim.Proc
}, s *Space, vpn int64, onReady func(error), demand bool) bool {
	var c FaultCall
	p := t.Proc()
	for {
		switch m.TryRequestPage(&c, p.Task(), t, s, vpn, onReady, demand) {
		case PageResident:
			return true
		case PagePending:
			return false
		}
		p.Park()
	}
}

// startFetch marks (s, vpn) fetching into frame fr and aims the READ at
// node over qp; the caller posts it.
func (m *Manager) startFetch(s *Space, vpn int64, fr int32, node int, qp *rdma.QP, demand bool) *Fetch {
	f := m.newFetch(s, vpn, fr, false, demand)
	f.qp = qp
	f.node = node
	f.tried = 1 << uint(node)
	if m.migr != nil {
		m.migr.RecordFault(s, vpn, node, demand)
	}
	m.move(s, vpn, edgeFetch, f)
	return f
}

// postFetch posts c.fetch's READ and, once it is out, the read-ahead
// that rides on a demand miss. A QP that is saturated, or errored and
// draining, refuses the post: w waits for a slot and the call stalls.
func (m *Manager) postFetch(c *FaultCall, w *sim.Task, q QPSource) PageStatus {
	f := c.fetch
	if f.qp.PostReadAlias(f.Space.remote(f.VPN, f.node, f.qp), f) != nil {
		f.qp.AddSlotWaiter(w)
		return PageStalled
	}
	c.fetch = nil
	s, vpn := f.Space, f.VPN
	m.fetchSpan(q, s, vpn)
	switch m.cfg.PrefetchPolicy {
	case Sequential:
		m.prefetchAround(q, s, vpn)
	case Leap:
		m.leapRecord(s, vpn)
		m.leapPrefetch(q, s, vpn)
	}
	return PagePending
}

// fetchNode picks the node a fetch of (s, vpn) should read from: the
// primary owner, unless the health oracle already declared it dead and
// a live replica exists. With no oracle installed this is exactly
// s.Owner(vpn, 0).
func (m *Manager) fetchNode(s *Space, vpn int64) int {
	node := s.Owner(vpn, 0)
	if m.NodeLive(node) {
		return node
	}
	for k := 1; k < s.region.Replicas(); k++ {
		if o := s.Owner(vpn, k); m.NodeLive(o) {
			m.failedOver(s, vpn, o)
			return o
		}
	}
	// No live owner: post to the primary anyway; the timeout path will
	// abort the access honestly.
	return node
}

// failedOver books a read of (s, vpn) re-routed off a dead node to
// node, and marks it on the failover track when a trace is wired.
func (m *Manager) failedOver(s *Space, vpn int64, node int) {
	m.FailoverReads.Inc()
	if m.trace != nil {
		m.trace.Instant(trace.KindFailover, trace.TidFailover,
			fmt.Sprintf("failover %s:%d -> node %d", s.name, vpn, node), m.env.Now())
	}
}

// failoverNode returns the next owner of f's page that is live and not
// yet tried, for re-routing after a dead-node timeout. Without a health
// oracle there is no failover: the access aborts.
func (m *Manager) failoverNode(s *Space, f *Fetch) (int, bool) {
	if m.health == nil {
		return 0, false
	}
	for k := 0; k < s.region.Replicas(); k++ {
		o := s.Owner(f.VPN, k)
		if f.tried&(1<<uint(o)) == 0 && m.health.Live(o) {
			return o, true
		}
	}
	return 0, false
}

// issueAsync starts a non-blocking fetch of an absent page (prefetch or
// span fill). It is skipped — returning false — when frames or QP slots
// are scarce, so background fetches never induce reclaim pressure or
// stall the faulting thread.
func (m *Manager) issueAsync(q QPSource, s *Space, vpn int64) bool {
	if vpn >= s.Pages() || s.ptes[vpn].state() != pageAbsent {
		return true // nothing to do; not a resource failure
	}
	node := m.fetchNode(s, vpn)
	qp := q.QP(node)
	if qp.Full() || qp.Errored() {
		return false
	}
	fr, ok := m.tryAllocFrame()
	if !ok {
		return false
	}
	f := m.startFetch(s, vpn, fr, node, qp, false)
	if err := qp.PostReadAlias(s.remote(vpn, node, qp), f); err != nil {
		// QP filled up between the check and the post; undo.
		m.finish(f, edgeDrop, nil)
		return false
	}
	return true
}

// fetchSpan fills the rest of a demand fault's aligned span when the
// fetch granularity (Config.FetchAlign) exceeds one page — the
// huge-page-granularity memory-node model and its I/O amplification.
func (m *Manager) fetchSpan(q QPSource, s *Space, vpn int64) {
	align := int64(m.cfg.FetchAlign)
	if align <= 1 {
		return
	}
	base := vpn &^ (align - 1)
	for p := base; p < base+align; p++ {
		if p == vpn {
			continue
		}
		if !m.issueAsync(q, s, p) {
			return
		}
	}
}

// PrefetchRange is the application-guided (Canvas-style, two-tier)
// prefetch interface: the application announces it is about to access
// [off, off+n) of the space, and the manager fetches the absent pages
// asynchronously on the caller's QP. Never blocks; stops early when
// frames or QP slots run short. Returns the number of fetches issued.
func (m *Manager) PrefetchRange(q QPSource, s *Space, off, n int64) int {
	if n <= 0 {
		return 0
	}
	first := off >> PageShift
	last := (off + n - 1) >> PageShift
	issued := 0
	for vpn := first; vpn <= last && vpn < s.Pages(); vpn++ {
		if s.ptes[vpn].state() != pageAbsent {
			continue
		}
		if !m.issueAsync(q, s, vpn) {
			break
		}
		issued++
		m.PrefetchIssued.Inc()
	}
	return issued
}

// prefetchAround issues sequential read-ahead after a demand miss,
// fetching up to cfg.Prefetch following pages that are absent. Prefetches
// never block: they are skipped when frames or QP slots are scarce.
func (m *Manager) prefetchAround(q QPSource, s *Space, vpn int64) {
	for i := 1; i <= m.cfg.Prefetch; i++ {
		if !m.issueAsync(q, s, vpn+int64(i)) {
			return
		}
		m.PrefetchIssued.Inc()
	}
}

// Complete is CompleteOn for a fetch's completion, whose QP is the
// record's own. A write-back's completion names the copy it acks by its
// QP, so it goes through CompleteOn.
func (m *Manager) Complete(f *Fetch, cerr error) bool {
	return m.CompleteOn(f, cerr, f.qp)
}

// CompleteOn finishes one round of an in-flight page movement when its
// RDMA completion, delivered on qp, has been polled, and reports whether
// the record is terminal (true) or has been re-armed for a retry (false)
// — callers tracking in-flight counts must only decrement on true.
//
// On success: a fetch makes the page present (its bytes are the region
// view the READ read). A write-back books qp's node as acked and, once
// every targeted copy acked or died, frees the frame and makes the page
// absent. On a completion error the
// recovery state machines take over:
//
//   - a write-back retries the errored copy with exponential backoff; a
//     dead copy leaves the quorum, and once every targeted copy died the
//     write-back is re-planned over the live owners (the primary alone
//     while none is live). The dirty page keeps its frame and its
//     dirty bit, so an eviction is never observable before a memory
//     node holds the bytes;
//   - a demand fetch (or a prefetch someone started waiting on) is
//     re-posted up to Config.MaxFetchAttempts total posts, after which
//     the page reverts to absent and waiters receive a *FetchError; one
//     that timed out against a dead node re-routes to the next live
//     untried replica, or — when the last replica is dead — aborts at
//     once rather than burning the remaining retry budget against a node
//     that cannot answer;
//   - an unawaited prefetch is simply dropped — it was optional.
func (m *Manager) CompleteOn(f *Fetch, cerr error, qp *rdma.QP) bool {
	s := f.Space
	ed := edgeInstall
	if f.writeback {
		ed = edgeDurable
	}
	m.expect(s, f.VPN, ed)
	if cerr != nil && f.firstFailAt < 0 {
		f.firstFailAt = int64(m.env.Now())
	}
	if f.writeback {
		if !m.fanoutAck(f, cerr, qp) {
			return false
		}
	} else if cerr != nil {
		return m.completeError(f, cerr)
	}
	m.finish(f, ed, nil)
	return true
}

// finish ends f's life on edge ed: the page moves, every waiter hears
// ferr (nil unless the fetch was abandoned), and the record is recycled.
func (m *Manager) finish(f *Fetch, ed edge, ferr error) {
	m.move(f.Space, f.VPN, ed, f)
	if ed != edgeDrop && f.firstFailAt >= 0 {
		m.RecoveryLat.Record(int64(m.env.Now()) - f.firstFailAt)
	}
	for _, w := range f.waiters {
		w(ferr)
	}
	m.recycleFetch(f)
}

// completeError handles a fetch's completion error and reports whether
// the record is terminal.
func (m *Manager) completeError(f *Fetch, cerr error) bool {
	dead := cerr == rdma.ErrNodeDead
	if dead && m.health != nil {
		m.health.ReportTimeout(f.node)
	}
	s := f.Space
	if !f.demand && len(f.waiters) == 0 {
		// An optional prefetch nobody is waiting on: drop it.
		m.PrefetchDrops.Inc()
		m.finish(f, edgeDrop, nil)
		return true
	}
	if dead {
		// The work request timed out against a crashed node: re-route to
		// the next live untried replica instead of burning the retry
		// budget against a node that cannot answer.
		if next, ok := m.failoverNode(s, f); ok {
			if simcheck.On() {
				m.checkFailover(f, next)
			}
			m.failedOver(s, f.VPN, next)
			m.FetchRetries.Inc()
			f.tried |= 1 << uint(next)
			f.node = next
			f.qp = m.failQPs[next]
			m.scheduleRepost(f)
			return false
		}
		// The last replica is dead (or no health oracle is wired): the
		// access cannot succeed — fail it now, honestly.
	} else if f.attempts < m.cfg.MaxFetchAttempts {
		m.FetchRetries.Inc()
		m.scheduleRepost(f)
		return false
	}
	m.FetchAborts.Inc()
	m.finish(f, edgeDrop, &FetchError{Space: s.name, VPN: f.VPN, Attempts: f.attempts, Err: cerr})
	return true
}

// wbPlan returns the nodes a write-back of (s, vpn) targets — every live
// owner — and the first of them in slot order, which the reclaimer's
// slot-waited post goes to. With no owner live the target is the primary
// alone: the write-back retries into the dead node and its frame stays
// stranded until an owner is live again, the blast radius of a page
// with no live copy.
func (m *Manager) wbPlan(s *Space, vpn int64) (mask uint64, first int) {
	first = -1
	for k := 0; k < s.region.Replicas(); k++ {
		o := s.Owner(vpn, k)
		if !m.NodeLive(o) {
			continue
		}
		if first < 0 {
			first = o
		}
		mask |= 1 << uint(o)
	}
	if first < 0 {
		first = s.Owner(vpn, 0)
		mask = 1 << uint(first)
	}
	return mask, first
}

// fanoutAck books one copy's completion of a write-back and reports
// whether the write-back is now durable (invariant 5): every targeted
// copy either acked or died — with at least one ack — so a dead copy
// shrinks the quorum instead of wedging it, and a transient error
// retries only that copy.
func (m *Manager) fanoutAck(f *Fetch, cerr error, qp *rdma.QP) bool {
	n := qp.Node()
	bit := uint64(1) << uint(n)
	switch {
	case cerr == nil:
		f.acked |= bit
		f.pending &^= bit
	case cerr == rdma.ErrNodeDead:
		if m.health != nil {
			m.health.ReportTimeout(n)
		}
		f.pending &^= bit
	default:
		m.retryWB(f, n)
		return false
	}
	if f.pending != 0 {
		return false
	}
	if f.acked == 0 {
		// Every targeted copy died before acking. The dirty frame is not
		// droppable: re-plan the whole write-back.
		m.retryWB(f, -1)
		return false
	}
	return true
}

// retryWB re-posts a write-back after backoff: the copy for node n after
// a transient error, or — n < 0, once every targeted copy died — the
// whole target set planned afresh, since the failure detector, repair or
// a rejoin may have changed which owners are live.
func (m *Manager) retryWB(f *Fetch, n int) {
	m.WritebackRetries.Inc()
	m.env.After(m.backoff(f.attempts), func() {
		f.attempts++
		if n >= 0 {
			m.postWBNode(f, n)
			return
		}
		f.pending, f.node = m.wbPlan(f.Space, f.VPN)
		m.postWBNode(f, f.node)
		m.postReplicas(f, f.node)
	})
}

// postReplicas fans a write-back out to every targeted node beyond the
// one its first post went to.
func (m *Manager) postReplicas(f *Fetch, posted int) {
	for n := 0; n < len(m.wbQPs); n++ {
		if n == posted || f.pending&(1<<uint(n)) == 0 {
			continue
		}
		m.ReplicaWrites.Inc()
		m.postWBNode(f, n)
	}
}

// postWBNode posts f's write-back toward node n, retrying in event
// context while that node's write-back QP is saturated or resetting.
// The record cannot be recycled while the post is outstanding: node n's
// pending bit stays set until a completion from n clears it, and no
// completion can arrive before the post succeeds.
func (m *Manager) postWBNode(f *Fetch, n int) {
	qp := m.wbQPs[n]
	if qp.PostWrite(f.Space.remote(f.VPN, n, qp), f.Space.page(f.VPN), f) != nil { // errored or full
		m.env.After(m.cfg.RetryBackoff, func() { m.postWBNode(f, n) })
	}
}

// scheduleRepost re-posts fetch f after an exponential backoff (base
// Config.RetryBackoff, doubling per attempt, capped at 16×). Runs in
// event context: no thread blocks on the retry itself.
func (m *Manager) scheduleRepost(f *Fetch) {
	m.env.After(m.backoff(f.attempts), func() { m.repost(f) })
}

func (m *Manager) backoff(attempts int) sim.Time {
	return m.cfg.RetryBackoff << min(attempts-1, 4) // attempts >= 1: a post preceded every retry
}

// repost re-issues fetch f's READ on its QP. While that QP is still
// draining/resetting or saturated, the retry waits another backoff
// round without consuming an attempt.
func (m *Manager) repost(f *Fetch) {
	qp := f.qp
	if qp.PostReadAlias(f.Space.remote(f.VPN, f.node, qp), f) != nil { // errored or full
		m.env.After(m.cfg.RetryBackoff, func() { m.repost(f) })
		return
	}
	f.attempts++
}
