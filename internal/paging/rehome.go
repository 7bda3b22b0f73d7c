package paging

import (
	"fmt"

	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/stats"
)

// RehomeJob is one planned re-home: copy page VPN of Space from node Src
// to node Dst, then point replica slot Slot of the page's owner set at
// Dst. Planners queue these; the engine works them one at a time.
type RehomeJob struct {
	Space   *Space
	VPN     int64
	Slot    int      // 0 is the primary
	Src     int      // node the bytes are read from
	Dst     int      // new home
	Planned sim.Time // when the planner created the job (its latency origin)
}

// Landing is a planner's answer to "this job's copy is durable at Dst —
// may the owner table follow?".
type Landing int

const (
	Land      Landing = iota // re-point the slot now
	LandLater                // not yet: ask again after RetryBackoff
	LandNever                // the world moved: drop the job, abandon the copy
)

// RehomePlanner is what the engine asks of whoever feeds it. The engine
// never learns which client it serves; everything client-specific is one
// of these answers. A job stays the planner's head — Next returns it
// again after a retry — until the planner has seen it Landed or has
// itself answered LandNever or Keep == false for it.
type RehomePlanner interface {
	// Next returns the next job that is still worth starting, endpoints
	// chosen, or false once the queue is drained.
	Next() (RehomeJob, bool)
	// Ready is asked when j's copy is durable and again after every
	// LandLater.
	Ready(j RehomeJob) Landing
	// Keep is asked when a verb of j's copy completed with err: true
	// re-asks Next after RetryBackoff (a retry), false drops the job.
	Keep(j RehomeJob, err error) bool
	// Landed reports that j's slot now answers j.Dst.
	Landed(j RehomeJob)
}

const (
	rhIdle  = iota // planner's queue drained (or not yet kicked)
	rhNext         // ask the planner (also the pacing and backoff wait)
	rhRead         // READ of the source copy in flight
	rhWrite        // WRITE to the new home in flight
	rhLand         // copy durable; the planner said LandLater
)

// Rehomer is the one re-home engine: a paced, one-job-at-a-time
// READ src → WRITE dst → owner-table write state machine on its own QPs
// and CQ. After every copy it idles PageSize/bandwidth cycles, so its
// average rate never exceeds the cap; a refused post or an errored
// completion backs off RetryBackoff and re-asks the planner. Data
// movement is modeled traffic — the region's single authoritative byte
// store needs no copying, so the WRITE lands in a scratch sink and an
// abandoned copy costs nothing.
//
// While a copy is in flight (READ posted … landed or dropped) the
// reclaimer dual-applies write-backs of that page to the copy's
// destination (mirrorMask), so the new home never holds stale bytes
// when the owner table follows.
type Rehomer struct {
	m   *Manager
	p   RehomePlanner
	qps []*rdma.QP
	cq  *rdma.CQ
	t   *sim.Task
	gap sim.Time

	buf  []byte // local staging buffer (READ destination)
	sink []byte // modeled WRITE target at the new home

	state int
	job   RehomeJob // the copy in flight; meaningful while state >= rhRead
	hash  uint64

	// Retries counts refused posts and completion errors the planner
	// chose to retry.
	Retries stats.Counter
}

// NewRehomer builds an engine for planner p over per-node QPs created
// for it, all completing on cq, which must be dedicated to it.
// bandwidth caps its copy traffic in bytes per cycle.
func NewRehomer(m *Manager, name string, qps []*rdma.QP, cq *rdma.CQ, bandwidth float64, p RehomePlanner) *Rehomer {
	e := &Rehomer{
		m:    m,
		p:    p,
		qps:  qps,
		cq:   cq,
		gap:  sim.Time(float64(PageSize) / bandwidth),
		buf:  make([]byte, PageSize),
		sink: make([]byte, PageSize),
		hash: 1469598103934665603, // FNV-1a offset basis
	}
	e.t = sim.NewTask(m.env, name, e.fire)
	cq.Notify = func() {
		if !e.t.Armed() {
			e.t.FireAt(m.env.Now())
		}
	}
	m.rehomers = append(m.rehomers, e)
	return e
}

// Kick starts an idle engine; the planner calls it after queueing work.
func (e *Rehomer) Kick() {
	if e.state == rhIdle && !e.t.Armed() {
		e.state = rhNext
		e.t.FireAfter(0)
	}
}

// Idle reports whether the engine holds no job and waits for a Kick.
func (e *Rehomer) Idle() bool { return e.state == rhIdle }

// ScheduleHash returns an order-sensitive digest of the landed
// schedule, for determinism tests.
func (e *Rehomer) ScheduleHash() uint64 { return e.hash }

// Fold mixes one landing into the schedule hash (FNV-1a, byte-wise,
// order-sensitive). The planner picks the words, from Landed.
func (e *Rehomer) Fold(words ...uint64) {
	for _, v := range words {
		for i := 0; i < 8; i++ {
			e.hash ^= (v >> (8 * i)) & 0xff
			e.hash *= 1099511628211 // FNV-1a prime
		}
	}
}

func (e *Rehomer) fire() {
	switch e.state {
	case rhNext:
		e.start()
	case rhRead, rhWrite:
		e.drain()
	case rhLand:
		e.land()
	}
}

// again returns to the planner after d: the pacing gap after a finished
// copy, RetryBackoff after a refusal or an error.
func (e *Rehomer) again(d sim.Time) {
	e.state = rhNext
	e.t.FireAfter(d)
}

// start posts the READ of the planner's next job, or parks the engine.
func (e *Rehomer) start() {
	j, ok := e.p.Next()
	if !ok {
		e.state = rhIdle
		return
	}
	qp := e.qps[j.Src]
	remote := j.Space.region.SliceFor(j.VPN*PageSize, PageSize, j.Src, qp.Name())
	if qp.PostRead(e.buf, remote, e) != nil {
		// Serial use cannot saturate the QP, but one in its error state
		// (fault plans) refuses the post.
		e.Retries.Inc()
		e.again(e.m.cfg.RetryBackoff)
		return
	}
	e.job = j
	e.state = rhRead
}

// drain consumes the in-flight verb's completion and advances the copy:
// READ done → post the WRITE; WRITE done → land.
func (e *Rehomer) drain() {
	cs := e.cq.Poll(1) // one verb in flight, ever
	switch {
	case len(cs) == 0:
		// Spurious wake; the completion's Notify will re-arm us.
	case cs[0].Err != nil:
		if e.p.Keep(e.job, cs[0].Err) {
			e.Retries.Inc()
		}
		e.again(e.m.cfg.RetryBackoff)
	case e.state == rhWrite:
		e.state = rhLand
		e.land()
	default: // READ done
		if e.qps[e.job.Dst].PostWrite(e.sink, e.buf, e) != nil {
			e.Retries.Inc()
			e.again(e.m.cfg.RetryBackoff)
			return
		}
		e.state = rhWrite
	}
}

// land asks the planner whether the owner table may follow the copy
// and, on Land, re-points the slot: the one write of a re-home.
func (e *Rehomer) land() {
	j := e.job
	switch e.p.Ready(j) {
	case LandLater:
		e.t.FireAfter(e.m.cfg.RetryBackoff) // state stays rhLand
		return
	case Land:
		s := j.Space
		if simcheck.On() {
			e.checkStaleRead(j)
		}
		// The mutation (simcheckmutate builds only) drops the owner-table
		// write after the copy: the planner's books move but traffic keeps
		// hitting the old home — the migrate/owner-table oracle must
		// catch it.
		if !simcheck.Mut("migrate_lost_owner") {
			s.rehome(j.VPN, j.Slot, j.Dst)
		}
		e.p.Landed(j)
		if o := s.Owner(j.VPN, j.Slot); simcheck.On() && o != j.Dst {
			simcheck.Fail(simcheck.New("migrate/owner-table",
				"owner table does not answer the re-home destination after the landing").
				With("space", s.name).With("page", j.VPN).With("slot", j.Slot).
				With("owner", o).With("want", j.Dst))
		}
	}
	e.again(e.gap)
}

// checkStaleRead is the migrate/stale-read oracle, run (oracles armed)
// as j lands: retiring the copy of a live node while a fetch of the page
// is in flight may leave that fetch installing the pre-landing bytes —
// which waiting for quiescence before such a landing is meant to make
// impossible. Retiring a dead node's copy (a repair) is always safe.
func (e *Rehomer) checkStaleRead(j RehomeJob) {
	if o := j.Space.Owner(j.VPN, j.Slot); e.m.NodeLive(o) && j.Space.ptes[j.VPN].state() == pageFetching {
		simcheck.Fail(simcheck.New("migrate/stale-read",
			"landing retires a live copy a fetch in flight may be reading").
			With("space", j.Space.name).With("page", j.VPN).With("slot", j.Slot).
			With("node", o).With("dst", j.Dst))
	}
}

// mirrorMask returns the destination bit of any re-home copy of (s, vpn)
// in flight, for the reclaimer's write-back fan-out.
func (m *Manager) mirrorMask(s *Space, vpn int64) uint64 { return m.copies(s, vpn, nil) }

// Rivals returns the destination bits of the copies of (s, vpn) in flight
// on the manager's other engines: an owner-set change of the same page
// that another planner may land first. Planners consult it in Ready.
func (e *Rehomer) Rivals(s *Space, vpn int64) uint64 { return e.m.copies(s, vpn, e) }

func (m *Manager) copies(s *Space, vpn int64, except *Rehomer) uint64 {
	var mask uint64
	for _, e := range m.rehomers {
		if e != except && e.state >= rhRead && e.job.Space == s && e.job.VPN == vpn {
			mask |= 1 << uint(e.job.Dst)
		}
	}
	return mask
}

// Owner returns the node holding copy k of page vpn: slot 0 is the
// primary, slots 1..Replicas-1 the replicas. It is the one owner lookup:
// the last landing of the slot, or the region's placement if none.
func (s *Space) Owner(vpn int64, k int) int {
	reps := s.region.Replicas()
	if s.owners == nil || k < 0 || k >= reps {
		return s.region.OwnerAt(vpn, k) // the placement, or its range panic
	}
	return int(s.owners[vpn*int64(reps)+int64(k)])
}

// rehome points slot k of page vpn at node, filling the owner table from
// the placement at the space's first landing.
func (s *Space) rehome(vpn int64, k, node int) {
	reps := s.region.Replicas()
	if k < 0 || k >= reps || node < 0 || node >= s.region.Nodes() {
		panic(fmt.Sprintf("paging: space %q: re-home page %d slot %d to node %d out of range",
			s.name, vpn, k, node))
	}
	if s.owners == nil {
		s.owners = make([]uint8, len(s.ptes)*reps)
		for i := range s.owners {
			s.owners[i] = uint8(s.region.OwnerAt(int64(i/reps), i%reps))
		}
	}
	s.owners[vpn*int64(reps)+int64(k)] = uint8(node)
}
