package paging

import (
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/simcheck"
)

// StartReclaimer launches the page reclaimer. With cfg.Proactive (the
// Adios design) it wakes whenever the free-frame pool drops below the
// threshold and evicts ahead of demand; otherwise (the conventional
// design) it only runs once allocations actually stall. Dirty pages are
// written back to the memory node over the given QP; the reclaimer polls
// cq for its own write completions.
func (m *Manager) StartReclaimer(qp *rdma.QP, cq *rdma.CQ) *sim.Task {
	return m.StartReclaimerQPs([]*rdma.QP{qp}, cq)
}

// StartReclaimerQPs is StartReclaimer for a sharded backing store: one
// write-back QP per memory node, indexed by node id, all completing on
// cq. Each eviction's write-back is posted on the QP of the page's
// owning node, so a degraded shard only slows write-backs of its own
// stripe.
//
// The reclaimer runs as a tier-1 task: a state machine whose steps — a
// gate wake, a per-page eviction cost elapsing, a QP slot freeing, a
// write-back completing — are single wheel events, with no goroutine
// behind them. Its step sequence replicates the retired proc loop
//
//	for { reclaimGate.Wait; for needReclaim() { reclaimBatch } }
//
// event for event (each Sleep, gate wake-up, and slot wake-up maps to
// exactly one firing with the same (at, seq)), keeping goldens
// byte-identical.
func (m *Manager) StartReclaimerQPs(qps []*rdma.QP, cq *rdma.CQ) *sim.Task {
	cqGate := sim.NewGate(m.env)
	cq.Notify = cqGate.Wake
	m.wbQPs = qps // replica fan-out posts share these QPs (and this CQ)
	r := &reclaimer{m: m, qps: qps, cq: cq, cqGate: cqGate}
	r.t = sim.NewTask(m.env, "reclaimer", r.fire)
	// One creation-time event, standing in for the proc's start event:
	// its firing reaches the reclaimGate wait point.
	r.state = rsStart
	r.t.FireAfter(0)
	return r.t
}

// reclaimer is the task-tier eviction state machine. state names the
// wait point the machine is parked at; everything else is loop state
// that lived on the proc's stack before the migration.
type reclaimer struct {
	m      *Manager
	qps    []*rdma.QP
	cq     *rdma.CQ
	cqGate *sim.Gate
	t      *sim.Task

	state     int
	victims   []int32
	vi        int   // index of the victim the next rsVictim firing processes
	inflight  int   // write-backs posted but not yet durable
	pendFrame int32 // frame of the post blocked on a QP slot (rsSlot)

	cqBuf [64]rdma.Completion // completion-poll scratch (allocation-free)
}

const (
	rsStart  = iota // creation event: go wait on the reclaim gate
	rsGate          // woken by reclaimGate: reclamation may be needed
	rsYield         // empty-victim yield sleep elapsed: rescan
	rsVictim        // per-page eviction cost elapsed: process victims[vi]
	rsSlot          // QP slot wake-up: retry the blocked write-back post
	rsCQ            // woken by cqGate: poll for write-back completions
)

func (r *reclaimer) fire() {
	switch r.state {
	case rsStart:
		r.block()
	case rsGate, rsYield:
		r.step()
	case rsVictim:
		if r.processVictim() {
			r.advanceVictim()
		}
	case rsSlot:
		if r.tryPost(r.pendFrame) {
			r.advanceVictim()
		}
	case rsCQ:
		r.await()
	}
}

// block is the reclaimGate wait point. A pending wake is consumed and
// the machine proceeds inline, exactly as Gate.Wait would have returned
// in zero time.
func (r *reclaimer) block() {
	if !r.m.reclaimGate.Arm(r.t) {
		r.state = rsGate
		return
	}
	r.step()
}

// step is the `for m.needReclaim()` loop driver: start the next eviction
// round, or fall back to blocking on the reclaim gate.
func (r *reclaimer) step() {
	for r.m.needReclaim() {
		r.victims = r.m.selectVictims(r.m.cfg.ReclaimBatch)
		if len(r.victims) == 0 {
			// Nothing evictable right now (everything in flight or free).
			// Yield a little CPU time and retry; spinning at zero cost
			// would wedge the simulated clock.
			r.state = rsYield
			r.t.FireAfter(r.m.cfg.ReclaimPageCost)
			return
		}
		r.vi = 0
		r.inflight = 0
		r.state = rsVictim
		r.t.FireAfter(r.m.cfg.ReclaimPageCost)
		return
	}
	r.block()
}

// processVictim evicts victims[vi] after its eviction cost has elapsed:
// unmap, then either free the clean frame or post the dirty page's
// write-back. Reports false when the post is blocked on a full QP.
func (r *reclaimer) processVictim() bool {
	m := r.m
	fi := r.victims[r.vi]
	f := &m.frames[fi]
	s := m.spaces[f.space]
	m.Evictions.Inc()
	m.unmapped(fi)
	// The mutation (simcheckmutate builds only) treats a dirty page as
	// clean, freeing its frame before the bytes are durable — the
	// paging/dirty-free oracle must catch it on the eviction edge below.
	if s.ptes[f.vpn].dirty() && !simcheck.Mut("paging-dirty-free") {
		node := s.region.NodeOf(f.vpn)
		rec := m.newFetch(s, f.vpn, fi, true, false)
		// Dual-apply: while a re-home copy of this page is in flight,
		// the write-back also targets the copy's destination so the new
		// home never holds stale bytes when the owner table follows.
		extra := m.mirrorMask(s, f.vpn)
		if s.region.Replicas() > 1 || extra != 0 {
			// Fan out to every live owner; the slot-waited primary post
			// targets the first live one. A fully dead owner set falls
			// back to the unreplicated retry-forever path.
			if mask, first := m.wbPlan(s, f.vpn); mask != 0 {
				rec.pending, node = mask|extra, first
			}
		}
		qp := r.qps[node]
		rec.qp = qp
		rec.node = node
		m.move(s, f.vpn, edgeWriteback, rec)
		m.DirtyWritebacks.Inc()
		return r.tryPost(fi)
	}
	m.move(s, f.vpn, edgeEvict, nil)
	return true
}

// tryPost posts the write-back for frame fi, or registers the task for a
// QP slot wake-up (Mesa semantics: the wake means "retry", not "yours").
// Every field of the post is recomputed from the frame table, which is
// frozen for this page while its write-back is pending.
func (r *reclaimer) tryPost(fi int32) bool {
	m := r.m
	f := &m.frames[fi]
	s := m.spaces[f.space]
	rec := m.inflight(s.ptes[f.vpn])
	node := rec.node
	qp := r.qps[node]
	if err := qp.PostWrite(s.region.SliceFor(f.vpn*PageSize, PageSize, node, qp.Name()), f.data, rec); err != nil {
		r.pendFrame = fi
		r.state = rsSlot
		qp.AddSlotWaiter(r.t)
		return false
	}
	if rec.pending != 0 {
		m.postReplicas(rec, node)
	}
	r.inflight++
	return true
}

// advanceVictim moves to the next victim's eviction sleep, or — once the
// round is posted — to draining its write-backs.
func (r *reclaimer) advanceVictim() {
	r.vi++
	if r.vi < len(r.victims) {
		r.state = rsVictim
		r.t.FireAfter(r.m.cfg.ReclaimPageCost)
		return
	}
	r.await()
}

// await drains the round's write-backs: poll until every posted write is
// durable, blocking on the CQ gate when the queue runs dry. A completion
// error re-arms the record (Complete returns false) and the retried post
// delivers a later completion on this same CQ, so the count only drops
// when the bytes are safely remote.
func (r *reclaimer) await() {
	for r.inflight > 0 {
		n := r.cq.PollInto(r.cqBuf[:])
		if n == 0 {
			if r.cqGate.Arm(r.t) {
				continue
			}
			r.state = rsCQ
			return
		}
		for _, c := range r.cqBuf[:n] {
			if r.m.CompleteOn(c.Cookie.(*Fetch), c.Err, c.QP) {
				r.inflight--
			}
		}
	}
	r.step()
}

// needReclaim reports whether another eviction round is required.
func (m *Manager) needReclaim() bool {
	if len(m.frameWaiters) > 0 {
		return true
	}
	if !m.cfg.Proactive {
		return false
	}
	return float64(len(m.free)) < m.lowWater
}

// clockSelect runs the CLOCK hand over the frame table, clearing
// reference bits and collecting up to max resident, unreferenced victim
// frames. At most two full sweeps are made; the picked bit keeps the
// second from choosing a victim again, and needs no clearing because
// every victim of a round leaves pagePresent before the next selection.
func (m *Manager) clockSelect(max int) []int32 {
	out := m.victimBuf[:0]
	n := len(m.frames)
	for scanned := 0; scanned < 2*n && len(out) < max; scanned++ {
		i := int32(m.clockHand)
		m.clockHand = (m.clockHand + 1) % n
		f := &m.frames[i]
		if f.space < 0 {
			continue
		}
		e := &m.spaces[f.space].ptes[f.vpn]
		if e.state() != pagePresent || *e&ptePicked != 0 {
			continue
		}
		if *e&pteRef != 0 {
			*e &^= pteRef
			continue
		}
		*e |= ptePicked
		out = append(out, i)
	}
	m.victimBuf = out
	return out
}
