// Package rdma models the one-sided RDMA fabric between the compute node
// and the memory node at the queue-pair level: per-QP ordered execution,
// bounded QP depth, a shared full-duplex 100 GbE link with serialization
// delay, and completion queues with optional redirection (the primitive
// behind Adios's polling delegation, §3.4 of the paper).
//
// Every verb is one work request through one post path (QP.post): the
// checks, the fault-plan draw, the counters and the completion event are
// common, and only the legs differ — a READ crosses to the memory node,
// is served, and its data serializes inbound; a WRITE's data serializes
// outbound, then it crosses and is served. An operation arriving in a
// memory-node stall waits for the stall's end before it is served.
//
// Verbs move real bytes: a READ copies from the remote region into the
// caller's buffer at completion time; a WRITE copies the caller's buffer
// into the remote region. As with real ibverbs, buffers must remain
// stable until the completion is delivered.
package rdma

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/stats"
)

// ErrQPFull is returned by Post* when the QP already has QPDepth
// outstanding work requests. The paper observes this regime in the
// Memcached experiment: when QPs saturate, page-fault handlers must
// pause until a slot frees (§5.2).
var ErrQPFull = errors.New("rdma: send queue full")

// ErrQPError is returned by Post* while the QP is in the error state:
// after a work request completes in error, the QP accepts no new work
// until its outstanding requests drain (completing flushed) and the
// modify-QP reset cycle finishes.
var ErrQPError = errors.New("rdma: QP in error state")

// ErrWR marks a completion whose work request failed on the fabric (the
// injected completion-with-error of the fault plan). The operation had
// no effect: a READ copied nothing, a WRITE did not reach the region.
var ErrWR = errors.New("rdma: work request completed in error")

// ErrWRFlushed marks a completion flushed because its QP entered the
// error state while the request was in flight, mirroring
// IBV_WC_WR_FLUSH_ERR. The operation had no effect.
var ErrWRFlushed = errors.New("rdma: work request flushed (QP error state)")

// ErrNodeDead marks a completion whose work request was addressed to a
// crashed memory node: the request got no response and timed out after
// Config.DeadTimeout (the transport retry-exhaustion a real RC QP
// reports as IBV_WC_RETRY_EXC_ERR). The operation had no effect. Unlike
// ErrWR it does not push the QP into the error state — the failure is
// the node's, and the paging layer reroutes to a replica instead of
// draining and resetting the QP.
var ErrNodeDead = errors.New("rdma: memory node dead (transport retries exhausted)")

// Config holds the fabric cost model. Defaults (DefaultConfig) are
// calibrated so an unloaded 4 KiB READ completes in ≈2.4 µs, inside the
// 2–3 µs the paper reports for 100 GbE ConnectX-6 NICs.
type Config struct {
	// CyclesPerByte is the serialization delay of the shared link in CPU
	// cycles per wire byte. 100 Gb/s at 2 GHz is 0.16 cy/B; the default
	// uses an effective rate that accounts for protocol framing below the
	// per-message WireOverhead (flow control, acks).
	CyclesPerByte float64

	// WireOverhead is the per-message header overhead in bytes (RoCE MTU
	// segmentation headers, ICRC, acks).
	WireOverhead int

	// ReqFlight is the fixed latency from posting a work request until the
	// memory node NIC starts serving it: doorbell, PCIe, NIC processing,
	// and wire propagation.
	ReqFlight sim.Time

	// RespFlight is the fixed latency from the last response byte leaving
	// the memory node until the completion entry is visible in the CQ.
	RespFlight sim.Time

	// QPDepth bounds outstanding work requests per QP.
	QPDepth int

	// ResetDelay is the time a QP spends in the reset cycle after its
	// outstanding work requests drain from the error state (modify-QP
	// RESET→INIT→RTR→RTS). Only reachable when faults are injected.
	ResetDelay sim.Time

	// DeadTimeout is how long a work request addressed to a crashed node
	// waits before its ErrNodeDead completion is delivered — the modeled
	// transport retry budget. Orders of magnitude below the seconds-scale
	// ibverbs default, as a microsecond-scale fabric must configure it.
	DeadTimeout sim.Time
}

// DefaultConfig returns the calibrated 100 GbE fabric model.
func DefaultConfig() Config {
	return Config{
		CyclesPerByte: 0.22, // ~73 Gb/s effective data rate at 2 GHz
		WireOverhead:  240,  // 4 MTU segments/page × ~60 B headers
		ReqFlight:     sim.Micros(0.95),
		RespFlight:    sim.Micros(0.85),
		QPDepth:       128,
		ResetDelay:    sim.Micros(3),
		DeadTimeout:   sim.Micros(15),
	}
}

// OpKind distinguishes one-sided verbs.
type OpKind int

const (
	// OpRead is a one-sided RDMA READ (remote → local).
	OpRead OpKind = iota
	// OpWrite is a one-sided RDMA WRITE (local → remote).
	OpWrite
)

func (k OpKind) String() string {
	if k == OpRead {
		return "READ"
	}
	return "WRITE"
}

// Completion is a CQ entry.
type Completion struct {
	Kind   OpKind
	Bytes  int
	Cookie any      // caller context, e.g. the faulting unithread
	QP     *QP      // queue pair the work request was posted on
	At     sim.Time // completion delivery time

	// Err is nil on success; ErrWR for an injected fabric error,
	// ErrWRFlushed for a request flushed by its QP's error state. On
	// error no data moved: the caller must treat the operation as not
	// having happened.
	Err error
}

// Interceptor is the hook a fault plan uses to perturb fabric
// operations. All methods are called synchronously from the simulated
// event loop and must be deterministic functions of the plan's own
// seeded state; a nil interceptor (the default) leaves the fabric
// perfectly reliable and adds no random draws.
type Interceptor interface {
	// WROutcome is consulted once per posted work request. fail=true
	// makes the request complete in error (and pushes its QP into the
	// error state); delay adds RNR-NAK-style latency before the
	// completion is delivered.
	WROutcome(kind OpKind, bytes int) (fail bool, delay sim.Time)
	// LinkFactor scales serialization and flight times for an operation
	// posted at time at (≥ 1 during a link-degradation window, 1
	// otherwise).
	LinkFactor(at sim.Time) float64
	// ServeDelay returns extra time an operation arriving at the memory
	// node at time at must wait before being served (memory-node
	// pause/stall windows).
	ServeDelay(at sim.Time) sim.Time
}

// CQ is a completion queue. Completions from any number of QPs can be
// steered to one CQ; redirecting a QP's completions to another thread's
// CQ is exactly the paper's polling-delegation mechanism.
type CQ struct {
	name    string
	entries []Completion
	head    int

	// Notify, if set, is invoked (in event context) whenever a completion
	// arrives. Schedulers use it to wake the polling thread's gate.
	Notify func()
}

// NewCQ returns an empty completion queue.
func NewCQ(name string) *CQ { return &CQ{name: name} }

// Len reports the number of undelivered completions.
func (cq *CQ) Len() int { return len(cq.entries) - cq.head }

// Poll removes and returns up to max completions without blocking. The
// NIC charges no CPU time for it: a scheduler polling its CQ charges its
// own core (sched.Costs.CQPoll).
func (cq *CQ) Poll(max int) []Completion {
	n := cq.Len()
	if n == 0 {
		return nil
	}
	if n > max {
		n = max
	}
	out := make([]Completion, n)
	cq.PollInto(out)
	return out
}

// PollInto removes up to len(dst) completions into dst and returns the
// count. Completions are copied out: callers may block (charging poll
// CPU) before consuming, and new arrivals must not clobber what they
// were handed. dst is caller-owned scratch — steady-state polling loops
// reuse one buffer and stay allocation-free, consuming dst[:n] before
// the next PollInto on the same buffer.
func (cq *CQ) PollInto(dst []Completion) int {
	n := cq.Len()
	if n == 0 {
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	copy(dst, cq.entries[cq.head:cq.head+n])
	cq.head += n
	if cq.head == len(cq.entries) {
		cq.entries = cq.entries[:0]
		cq.head = 0
	}
	return n
}

// Inject delivers an externally produced completion into the CQ. The raw
// Ethernet path uses it so TX completions share the RDMA CQ machinery,
// as in the paper's implementation (§4).
func (cq *CQ) Inject(c Completion) { cq.push(c) }

func (cq *CQ) push(c Completion) {
	cq.entries = append(cq.entries, c)
	if cq.Notify != nil {
		cq.Notify()
	}
}

// NIC models the compute node's RDMA-capable NIC and the link to the
// memory node. The link is full duplex: READ data serializes on the
// inbound (memory→compute) direction, WRITE data on the outbound.
type NIC struct {
	env *sim.Env
	cfg Config

	inFreeAt  sim.Time // inbound link busy horizon
	outFreeAt sim.Time // outbound link busy horizon

	inBusy  stats.WindowedBusy
	outBusy stats.WindowedBusy

	Reads      stats.Counter
	Writes     stats.Counter
	ReadBytes  stats.Counter
	WriteBytes stats.Counter

	// CompletionErrors counts error completions (injected + flushed);
	// QPResets counts completed QP reset cycles; TimeoutErrors counts
	// work requests that timed out against a crashed node (ErrNodeDead).
	CompletionErrors stats.Counter
	QPResets         stats.Counter
	TimeoutErrors    stats.Counter

	// Crash window: with hasCrash set, requests arriving at the node in
	// [crashAt, rejoinAt) — or from crashAt on, when rejoinAt is zero —
	// get no response and complete ErrNodeDead after DeadTimeout.
	hasCrash bool
	crashAt  sim.Time
	rejoinAt sim.Time

	itc Interceptor // nil unless a fault plan is installed
	srv *Server     // non-nil when two-sided serving is enabled

	freeOps *wrOp // recycled in-flight work-request records
}

// wrOp is one in-flight work request between post and completion
// delivery. The records are pooled per NIC and carry a callback closure
// built once at allocation, so the steady-state post paths — every page
// fetch and write-back — schedule their completion event with zero
// allocations, at the same time and with the same seq as the per-post
// closures they replace.
type wrOp struct {
	nic      *NIC
	qp       *QP
	kind     OpKind
	dst, src []byte
	cookie   any
	n        int
	fail     bool
	dead     bool
	deliver  sim.Time
	run      func()
	next     *wrOp
}

func (n *NIC) getOp() *wrOp {
	op := n.freeOps
	if op == nil {
		op = &wrOp{nic: n}
		op.run = op.fire
		return op
	}
	n.freeOps = op.next
	op.next = nil
	return op
}

// fire delivers the work request's completion. The record is released
// before qp.complete runs — its wake-ups may lead back into a post that
// reuses it.
func (op *wrOp) fire() {
	qp, kind, dst, src, cookie, n, fail, dead, deliver := op.qp, op.kind, op.dst, op.src, op.cookie, op.n, op.fail, op.dead, op.deliver
	op.qp, op.dst, op.src, op.cookie = nil, nil, nil, nil
	op.next = op.nic.freeOps
	op.nic.freeOps = op
	c := Completion{Kind: kind, Bytes: n, Cookie: cookie, QP: qp, At: deliver}
	switch {
	case dead:
		c.Err = ErrNodeDead
	case fail:
		c.Err = ErrWR
	case qp.errored:
		c.Err = ErrWRFlushed
	default:
		copy(dst, src)
	}
	qp.complete(c)
	if simcheck.Mut("rdma-double-complete") {
		// Injected bug (mutation builds only): deliver the completion a
		// second time. The complete-once oracle (or the paging completion
		// state machine) must catch the duplicate.
		qp.complete(c)
	}
}

// NewNIC returns a NIC bound to env with the given cost model.
func NewNIC(env *sim.Env, cfg Config) *NIC {
	return &NIC{env: env, cfg: cfg}
}

// SetInterceptor installs a fault plan on the fabric. Must be called
// before any operation is posted; nil removes it.
func (n *NIC) SetInterceptor(itc Interceptor) { n.itc = itc }

// ScheduleCrash marks the NIC's memory node dead for requests arriving
// from crashAt on; rejoinAt > crashAt revives it (empty) at that time,
// rejoinAt == 0 makes the crash permanent. core.Config.Validate holds a
// built system's window to faults.Config.CheckCrash. The window is
// static state, not an event: posts consult it at their nominal arrival
// time, so the crash is byte-reproducible regardless of seed or load.
// Requests whose timing was already fixed before the crash instant
// complete normally — their response bytes were on the wire.
func (n *NIC) ScheduleCrash(crashAt, rejoinAt sim.Time) {
	n.hasCrash = true
	n.crashAt = crashAt
	n.rejoinAt = rejoinAt
}

// deadAt reports whether a request arriving at the memory node at time
// t falls inside the crash window.
func (n *NIC) deadAt(t sim.Time) bool {
	return n.hasCrash && t >= n.crashAt && (n.rejoinAt == 0 || t < n.rejoinAt)
}

// StartWindow begins the utilization measurement window (end of warm-up).
func (n *NIC) StartWindow() {
	now := int64(n.env.Now())
	n.inBusy.StartWindow(now)
	n.outBusy.StartWindow(now)
}

// InUtilization returns the inbound (READ data) link utilization over the
// current measurement window. This is the direction the paper plots in
// Figures 2(e) and 7(e).
func (n *NIC) InUtilization() float64 { return n.inBusy.Utilization(int64(n.env.Now())) }

// OutUtilization returns the outbound (WRITE data) link utilization.
func (n *NIC) OutUtilization() float64 { return n.outBusy.Utilization(int64(n.env.Now())) }

// QP is a reliable-connected queue pair. Work requests on one QP execute
// in order (the per-QP head-of-line behaviour that motivates PF-aware
// dispatching); different QPs proceed in parallel subject only to the
// shared link.
type QP struct {
	nic  *NIC
	cq   *CQ
	name string
	node int // memory-node index (fabric position); 0 for a lone NIC

	freeAt      sim.Time // per-QP ordered-execution horizon
	outstanding int

	// errored marks the QP's error state: after a completion error the
	// QP rejects new posts while in-flight requests drain (their
	// completions arrive flushed) and through the modify-QP reset cycle
	// that follows; it clears when the reset finishes.
	errored bool

	// fullWaiters are the tasks waiting for a free WR slot or for the
	// error-state reset to finish.
	fullWaiters []*sim.Task
	env         *sim.Env
}

// CreateQP creates a queue pair whose completions are delivered to cq.
func (n *NIC) CreateQP(name string, cq *CQ) *QP {
	return &QP{nic: n, cq: cq, name: name, env: n.env}
}

// Outstanding reports the number of in-flight work requests. The MD
// scheduler reads this directly for PF-aware dispatching — possible
// because scheduler and driver share one address space in Adios (§3.4).
func (qp *QP) Outstanding() int { return qp.outstanding }

// Name returns the QP's debug name.
func (qp *QP) Name() string { return qp.name }

// Node returns the index of the memory node this QP is connected to (0
// unless the QP was created through a multi-node Fabric).
func (qp *QP) Node() int { return qp.node }

// Full reports whether the QP is at depth.
func (qp *QP) Full() bool { return qp.outstanding >= qp.nic.cfg.QPDepth }

// Errored reports whether the QP is in the error state (draining or
// resetting after a completion error).
func (qp *QP) Errored() bool { return qp.errored }

// AddSlotWaiter registers w to be armed once the QP may accept a work
// request: a slot is free and the QP is not in the error state. Used by
// the fault handler when the QP saturates (§5.2) and while an errored QP
// drains and resets. Semantics are Mesa — the task must recheck
// Full/Errored when it fires and re-register if the slot was taken (or
// the QP re-errored) in the meantime.
func (qp *QP) AddSlotWaiter(w *sim.Task) {
	qp.fullWaiters = append(qp.fullWaiters, w)
	qp.env.MarkBlocked(w, "qp-slot")
}

// SlotWaiting reports whether w is registered for a slot wake-up (audit
// use: O(waiters)).
func (qp *QP) SlotWaiting(w *sim.Task) bool { return slices.Contains(qp.fullWaiters, w) }

// PostRead posts a one-sided READ of len(dst) bytes from src (a view of
// a registered remote region) into dst. The cookie is returned in the
// completion. The data copy happens at completion time; dst must remain
// stable until then.
func (qp *QP) PostRead(dst, src []byte, cookie any) error {
	if len(dst) != len(src) {
		return fmt.Errorf("rdma: read length mismatch: dst %d, src %d", len(dst), len(src))
	}
	return qp.post(OpRead, dst, src, cookie)
}

// PostReadAlias posts a one-sided READ of len(src) bytes that elides the
// completion-time copy: the caller keeps src (its view of the registered
// remote region) and aliases or copies from it once the completion is
// delivered. Timing, ordering, failure behaviour, and traffic accounting
// are identical to PostRead with a same-length dst — only the memmove is
// skipped — so callers may switch between the variants without
// perturbing the schedule.
func (qp *QP) PostReadAlias(src []byte, cookie any) error {
	return qp.post(OpRead, nil, src, cookie)
}

// PostWrite posts a one-sided WRITE of len(src) bytes from src into dst
// (a view of a registered remote region). src must remain stable until
// completion, matching ibverbs semantics.
func (qp *QP) PostWrite(dst, src []byte, cookie any) error {
	if len(dst) != len(src) {
		return fmt.Errorf("rdma: write length mismatch: dst %d, src %d", len(dst), len(src))
	}
	return qp.post(OpWrite, dst, src, cookie)
}

// post runs one work request of len(src) bytes: it takes a QP slot,
// times the request on the link and schedules its completion. Only the
// legs differ by kind. A READ crosses to the node, is served, and its
// data serializes inbound. A WRITE's data serializes outbound right
// after the doorbell, then it crosses the rest of the flight and is
// served. The response flight back follows either.
func (qp *QP) post(kind OpKind, dst, src []byte, cookie any) error {
	if qp.errored {
		return ErrQPError
	}
	if qp.Full() {
		return ErrQPFull
	}
	qp.outstanding++
	if simcheck.On() {
		qp.checkDepth()
	}
	nic := qp.nic
	n := len(src)
	cfg := &nic.cfg
	now := nic.env.Now()
	op := nic.getOp()
	op.qp, op.kind, op.dst, op.src, op.cookie, op.n = qp, kind, dst, src, cookie, n

	if nic.hasCrash && nic.deadAt(now+cfg.ReqFlight) {
		// The nominal arrival lands in the crash window: no response.
		// The request holds its QP slot until the timeout — the
		// head-of-line pressure a dead node exerts on a real RC QP — but
		// charges no link time and is not counted as traffic.
		nic.TimeoutErrors.Inc()
		op.fail, op.dead, op.deliver = false, true, now+cfg.DeadTimeout
	} else {
		fail, extra, slow := nic.intercept(kind, n)
		var ready sim.Time // when the data may start to serialize
		freeAt, busy := &nic.inFreeAt, &nic.inBusy
		if kind == OpRead {
			nic.Reads.Inc()
			nic.ReadBytes.Add(int64(n))
			ready = nic.serve(now+scale(cfg.ReqFlight, slow), n)
		} else {
			nic.Writes.Inc()
			nic.WriteBytes.Add(int64(n))
			freeAt, busy = &nic.outFreeAt, &nic.outBusy
			ready = now + scale(cfg.ReqFlight/4, slow)
		}
		start := maxTime(ready, qp.freeAt, *freeAt)
		xfer := sim.Time(float64(n+cfg.WireOverhead) * cfg.CyclesPerByte * slow)
		done := start + xfer
		if simcheck.On() {
			qp.checkOrder(done)
		}
		qp.freeAt = done
		*freeAt = done
		busy.AddInterval(int64(start), int64(done))
		if kind == OpWrite {
			done = nic.serve(done+scale(cfg.ReqFlight*3/4, slow), n)
		}
		op.fail, op.dead, op.deliver = fail, false, done+scale(cfg.RespFlight, slow)+extra
	}
	nic.env.At(op.deliver, op.run)
	return nil
}

// intercept consults the fault plan for one posted work request. With no
// interceptor it is free: no draws, identity scaling.
func (n *NIC) intercept(kind OpKind, bytes int) (fail bool, extra sim.Time, slow float64) {
	if n.itc == nil {
		return false, 0, 1
	}
	fail, extra = n.itc.WROutcome(kind, bytes)
	return fail, extra, n.itc.LinkFactor(n.env.Now())
}

// scale multiplies a duration by the link-degradation factor. The
// factor is exactly 1 outside degradation windows, keeping fault-free
// timing bit-identical to the unscaled computation.
func scale(d sim.Time, slow float64) sim.Time {
	if slow == 1 {
		return d
	}
	return sim.Time(float64(d) * slow)
}

func (qp *QP) complete(c Completion) {
	qp.outstanding--
	if simcheck.On() {
		qp.checkCompleted()
	}
	// A node-dead timeout is the remote side's failure: it does not push
	// the QP into the error/drain/reset cycle — the caller reroutes.
	if c.Err != nil && c.Err != ErrNodeDead {
		qp.nic.CompletionErrors.Inc()
		qp.errored = true
	}
	if qp.errored {
		qp.maybeReset()
	}
	if len(qp.fullWaiters) > 0 {
		w := qp.fullWaiters[0]
		qp.fullWaiters = qp.fullWaiters[1:]
		qp.env.MarkUnblocked(w)
		w.FireAt(qp.env.Now())
	}
	qp.cq.push(c)
}

// maybeReset schedules the modify-QP reset cycle once an errored QP has
// fully drained. It schedules at most one: post refuses work while
// errored is set, so once outstanding reaches 0 no completion is left to
// call here again before the reset fires. When the cycle completes the
// QP accepts posts again and every slot waiter is armed.
func (qp *QP) maybeReset() {
	if qp.outstanding > 0 {
		return
	}
	qp.env.After(qp.nic.cfg.ResetDelay, func() {
		qp.errored = false
		qp.nic.QPResets.Inc()
		for _, w := range qp.fullWaiters {
			qp.env.MarkUnblocked(w)
			w.FireAt(qp.env.Now())
		}
		qp.fullWaiters = qp.fullWaiters[:0]
	})
}

func maxTime(a, b, c sim.Time) sim.Time {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
