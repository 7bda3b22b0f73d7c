package sched

import (
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is the request half of the worker core's state machine: how
// a request executes, under every Config. A request is a
// workload.StepHandler the core calls; each Step runs to the next point
// where simulated time must pass and says what it needs, and the policy
// that distinguishes the paper's systems is what the machine does then —
// a fault parks the continuation and frees the core (yield) or keeps the
// core polling its fetch CQ (busy-wait), a probe may switch the request
// out and re-queue it centrally, a Block yields or spins, the TX
// completion is waited for here or delegated. Spawn is a struct reset
// from a free list, a parked request is its 80-byte StepFrame plus the
// bookkeeping below, and retire is a plain call — the paper's §3.2 cost
// argument made literal. A direct-style handler reaches the same machine
// through workload.Blocking.
//
// The bracket rule. A request's time on a core is a sequence of segments,
// each from spawn or resume up to the next park (fault or Block yield,
// preemption) or to completion, and every segment is bracketed by two
// Task.Yield calls — an arm at the current time: one before its first
// instruction, one before the core emits the run span and returns to its
// loop. With every cycle charge one Task.Sleep and every wait one
// Gate.Arm, this fixes where a request's execution crosses the event
// queue, and so its (at, seq) interleaving with everything else due at
// the same instant; the CSV, trace and digest goldens pin that schedule.

// Continuation lifecycle states (oracle sched/flat-state).
const (
	flatRunning = iota // on core, inside a bracketed segment
	flatWaiting        // parked, core freed: on a fetch completion or a Block wake
	flatReady          // woken, queued on its worker's ready ring
	flatQueued         // preempted, in the central queue or a worker's inbox
)

// flatCtx is the per-request execution context (§3.2): the whole
// continuation — StepFrame plus wait bookkeeping — recycled through
// Scheduler.freeFlats. It implements workload.StepCtx.
type flatCtx struct {
	sched  *Scheduler
	worker *Worker
	req    *Request
	frame  workload.StepFrame

	runStart  sim.Time // when last placed on a core (preemption quantum)
	noPreempt int      // >0 inside application critical sections

	// Fault in progress: the faulting page, whether the next
	// TryRequestPage round still counts as the demand access, whether the
	// completion callback has run (busy-wait's inner loop), and the
	// completion error (if the fetch was abandoned).
	faultSp     *paging.Space
	faultVpn    int64
	faultDemand bool
	fired       bool
	ferr        error

	// waitStart is when the fault, or the Block spin, in progress began.
	waitStart sim.Time
	// woken is set by the Block wake.
	woken bool
	// left is the compute still to charge under IPI slicing.
	left sim.Time
	// preempted marks a request switched out at its quantum's end, and
	// requeued when that put it back in the central queue; resume is
	// where the request continues once a core picks it up (flatBegin at
	// first, then wherever it yielded or was preempted).
	preempted bool
	requeued  sim.Time
	resume    int

	// retry marks that the next matching TryPage is the re-probe after a
	// completed fault (touch-only accounting; see Space.TryPage).
	retry bool

	state int  // flatRunning … flatQueued (oracle)
	done  bool // set at flatFinish; flatClosed retires after the span

	// onReadyFn and wakeFn are the bound fetch-completion and Block-wake
	// callbacks, created once per context so the wait paths stay
	// allocation-free across recycles.
	onReadyFn func(error)
	wakeFn    func()
}

// newFlat takes a recycled context (or builds one) for a dispatched
// request.
func (s *Scheduler) newFlat(w *Worker, req *Request) *flatCtx {
	if n := len(s.freeFlats); n > 0 {
		f := s.freeFlats[n-1]
		s.freeFlats[n-1] = nil
		s.freeFlats = s.freeFlats[:n-1]
		*f = flatCtx{sched: s, worker: w, req: req, resume: flatBegin, onReadyFn: f.onReadyFn, wakeFn: f.wakeFn}
		return f
	}
	f := &flatCtx{sched: s, worker: w, req: req, resume: flatBegin}
	f.onReadyFn, f.wakeFn = f.onReady, f.wake
	s.flats = append(s.flats, f)
	return f
}

// retireFlat recycles a finished context and, if the dispatcher no
// longer holds its request (buffer already released), the request too;
// otherwise the dispatcher recycles it at TX completion (the two-owner
// protocol of Scheduler.freeReqs).
func (s *Scheduler) retireFlat(f *flatCtx) {
	req := f.req
	if req.Buf == nil {
		s.freeRequest(req)
	} else {
		req.retired = true
	}
	f.req, f.faultSp = nil, nil
	s.freeFlats = append(s.freeFlats, f)
}

// abortRespBytes is the wire size of the error response sent for a
// request aborted by fetch failure.
const abortRespBytes = 64

// blockSpin is the body of one turn of a preemptive Block spin loop,
// beside the probe it carries.
const blockSpin = 250

// Request continuation points (Worker.pc).
const (
	flatOpen      = flatBase + iota // segment start: the opening yield
	flatResume                      // opening yield elapsed: continue where the request stopped
	flatBegin                       // request prologue
	flatPrologue                    // kernel RX charge elapsed: preemption's per-request charge
	flatJitter                      // scheduling-noise draw
	flatStep                        // run the handler's next step
	flatSlice                       // IPI preemption: charge compute up to the quantum's end
	flatIPI                         // IPI charge elapsed: switch out
	flatProbed                      // probe charge elapsed: quantum check
	flatRequeue                     // preemption switch elapsed: back to the central queue
	flatBlock                       // Block: wait for the wake per policy
	flatBlockSpin                   // busy-wait Block: the core waits on its block gate
	flatBlockSpun                   // preemptive busy-wait Block: one spin turn elapsed
	flatFaultOpen                   // fault-entry charge elapsed: open the fault
	flatFault                       // one round of the fault wait loop
	flatRequest                     // (re)issue the round's TryRequestPage
	flatSpin                        // busy-wait: poll the fetch CQ, wait on the CQ gate
	flatFaultDone                   // the page is resident or the fetch was abandoned
	flatMapped                      // map charge elapsed: retry the access
	flatTxPosted                    // TX-post charge elapsed: kernel TX charge
	flatSend                        // transmit the response
	flatTxWait                      // SyncTx: wait for the TX completion
	flatFinish                      // completion accounting
	flatClose                       // segment end: the closing yield
	flatClosed                      // closing yield elapsed: span, retire
)

// fireFlat advances the request on this core from pc. It reports false
// when the core armed or registered itself (fire must return) and true
// when the segment is over and the core is back at wLoop.
func (w *Worker) fireFlat() bool {
	s := w.sched
	c := &s.cfg.Costs
	f := w.flat
	for {
		switch w.pc {
		case flatOpen:
			w.pc = flatResume
			w.segStart = s.env.Now()
			if !w.task.Yield() {
				return false
			}

		// The request continues where it stopped — a fresh one at its
		// prologue. A preempted request waited in the queue since it was
		// switched out, and its quantum starts afresh; one that yielded
		// keeps its quantum running.
		case flatResume:
			if f.preempted {
				f.preempted = false
				now := s.env.Now()
				f.req.QueueWait += now - f.requeued
				f.runStart = now
			}
			w.pc = f.resume

		// The request prologue: start timestamps, kernel RX surcharge
		// (Hermit), the preemption timer's fixed cost (DiLOS-P),
		// scheduling jitter, then the handler's first step.
		case flatBegin:
			now := s.env.Now()
			f.req.Started = now
			f.req.QueueWait += now - f.req.Arrive
			f.runStart = now
			s.stepH.Begin(&f.frame, f.req.Pkt.Payload)
			if !w.charge(f.req, c.KernelNetExtra, flatPrologue) {
				return false
			}

		case flatPrologue:
			var d sim.Time
			if s.cfg.Preempt {
				d = c.PreemptPerRequest
			}
			if !w.charge(f.req, d, flatJitter) {
				return false
			}

		case flatJitter:
			w.pc = flatStep
			if c.JitterProb > 0 && s.env.Rand().Bool(c.JitterProb) &&
				!w.task.Sleep(s.env.Rand().Exp(c.JitterMean)) { // the core is stolen: nobody's CPU
				return false
			}

		case flatStep:
			resp, respLen, cycles, st := s.stepH.Step(f, &f.frame, f.req.Pkt.Payload)
			switch st {
			case workload.StepCompute:
				if f.sliced() {
					f.left, w.pc = cycles, flatSlice
				} else if !w.charge(f.req, cycles, flatStep) {
					return false
				}
			case workload.StepProbe:
				if !f.ProbeFree() && !w.charge(f.req, c.PreemptProbe, flatProbed) {
					return false
				}
			case workload.StepBlock:
				w.pc = flatBlock
			case workload.StepFault:
				f.req.Faults++
				if !w.charge(f.req, s.mgr.Config().FaultEntryCost+c.KernelFaultExtra, flatFaultOpen) {
					return false
				}
			default:
				if !w.respond(resp, respLen) {
					return false
				}
			}

		// Under IPI-based preemption (Shinjuku-style), compute can be
		// interrupted anywhere: the charge is sliced at quantum boundaries
		// and each expiry pays the interrupt cost — no probes required,
		// which is exactly the trade the paper measured against
		// compiler/manual cooperation (§5, "both IPI and manually enforced
		// cooperation").
		case flatSlice:
			remaining := s.cfg.Quantum - (s.env.Now() - f.runStart)
			switch {
			case f.left <= 0:
				w.pc = flatStep
			case remaining <= 0:
				if !w.charge(f.req, c.IPICost, flatIPI) {
					return false
				}
			default:
				step := min(f.left, remaining)
				f.left -= step
				if !w.charge(f.req, step, flatSlice) {
					return false
				}
			}

		case flatIPI:
			if !w.preempt(flatSlice) {
				return false
			}

		// The Concord-style probe: never present in the fault path, so
		// busy-waiting is never preempted — the paper's §2.3 observation
		// falls out of the structure.
		case flatProbed:
			if s.env.Now()-f.runStart < s.cfg.Quantum {
				w.pc = flatStep
			} else if !w.preempt(flatStep) {
				return false
			}

		// The request goes back to the central queue (Shinjuku-SQ
		// semantics) and the segment closes; whichever core the dispatcher
		// hands it to resumes it.
		case flatRequeue:
			f.advance(flatRunning, flatQueued, "preempted")
			f.requeued, f.preempted = s.env.Now(), true
			s.central.PushBack(workItem{resumed: f})
			s.wakeDispatchers()
			w.pc = flatClose

		// Block. Under the yield policy the request returns the core until
		// woken (like a page fault, Figure 5); under busy-wait it spins on
		// the core — and, when the scheduler is preemptive, the spin loop
		// carries probes, so the quantum can expire mid-spin (Concord
		// instruments all application code, including locks; otherwise
		// lock convoys could wedge every worker).
		case flatBlock:
			switch {
			case f.woken:
				w.pc = flatStep
			case s.cfg.Wait == Yield:
				if !w.park(flatBlock) {
					return false
				}
			case !s.cfg.Preempt:
				f.waitStart = s.env.Now()
				w.pc = flatBlockSpin
			default:
				f.waitStart = s.env.Now()
				w.pc = flatBlockSpun
				if !w.task.Sleep(c.PreemptProbe + blockSpin) {
					return false
				}
			}

		case flatBlockSpin:
			if !f.woken {
				if !w.blockGate.Arm(w.task) {
					return false
				}
				continue
			}
			w.spun(s.env.Now())
			w.pc = flatStep

		case flatBlockSpun:
			now := s.env.Now()
			w.spun(now)
			if now-f.runStart < s.cfg.Quantum {
				w.pc = flatBlock
			} else if !w.preempt(flatBlock) {
				return false
			}

		case flatFaultOpen:
			f.waitStart = s.env.Now()
			s.Trace.Instant(trace.KindFetch, w.id, "fault", f.waitStart)
			f.ferr = nil
			f.faultDemand = true
			w.pc = flatFault

		// One round of the fault wait loop — the heart of the
		// reproduction. If the page is (or has become) resident, or the
		// fetch was abandoned, the fault closes; otherwise the round
		// (re)issues the request and waits per policy.
		case flatFault:
			w.pc = flatRequest
			f.fired = false
			if f.ferr != nil || f.faultSp.Resident(f.faultVpn) {
				w.pc = flatFaultDone
			}

		// A stalled call (no frame, no QP slot) re-enters here when the
		// pool or the QP wakes the core: the call resumes inside the
		// manager, where a blocking caller would have been parked.
		case flatRequest:
			switch s.mgr.TryRequestPage(&w.call, w.task, f, f.faultSp, f.faultVpn, f.onReadyFn, f.faultDemand) {
			case paging.PageStalled:
				return false
			case paging.PageResident:
				w.pc = flatFaultDone
			default:
				f.faultDemand = false
				if s.cfg.Wait == BusyWait {
					w.pc = flatSpin
				} else if !w.park(flatFault) { // ⑤ yield to the worker; ⑨ it switches back when ready
					return false
				}
			}

		// Busy-wait: the request keeps its core, which polls its own fetch
		// CQ until the completion callback has run or the page is resident,
		// waiting on the CQ gate between arrivals.
		case flatSpin:
			if f.fired || f.faultSp.Resident(f.faultVpn) {
				w.pc = flatFault
			} else if n := w.cq.PollInto(w.cqBuf[:16]); n > 0 {
				for _, comp := range w.cqBuf[:n] {
					s.mgr.CompleteOn(comp.Cookie.(*paging.Fetch), comp.Err, comp.QP)
				}
			} else if !w.cqGate.Arm(w.task) {
				return false
			}

		case flatFaultDone:
			ferr := f.ferr
			f.ferr = nil
			now := s.env.Now()
			if s.cfg.Wait == BusyWait {
				w.spun(now)
				s.Trace.Span(trace.KindBusyWait, w.id, "busy-wait fetch", f.waitStart, now, nil)
			}
			f.req.RDMAWait += now - f.waitStart
			if ferr != nil {
				// The demanded page could not be fetched within the retry
				// budget — the simulated SIGBUS. Fail the request, with a
				// (small) error response so client-side transport state is
				// not wedged; any abandoned critical section dies with it.
				s.stepH.Abort(&f.frame, ferr)
				s.FaultAborts.Inc()
				f.req.Failed = true
				f.noPreempt = 0
				if !w.respond(nil, abortRespBytes) {
					return false
				}
			} else if !w.charge(f.req, s.mgr.Config().MapCost, flatMapped) {
				return false
			}

		case flatMapped:
			// The page is resident and MapCost is paid; the re-run's
			// retried access takes the touch-only path.
			f.retry = true
			w.pc = flatStep

		case flatTxPosted:
			if !w.charge(f.req, c.KernelNetExtra, flatSend) { // kernel TX path (Hermit)
				return false
			}

		case flatSend:
			// The request itself rides the TX completion as its cookie.
			pkt := f.req.Pkt
			pkt.Payload, pkt.Size = w.resp, w.respLen
			w.txq.Send(pkt, f.req)
			w.pc = flatFinish // DelegatedTx: the dispatcher recycles the buffer on completion (Figure 6)
			if s.cfg.Tx != DelegatedTx {
				f.waitStart = s.env.Now()
				w.pc = flatTxWait
			}

		// Under SyncTx the core busy-waits for the TX completion on its own
		// CQ (DiLOS behaviour, and the Figure 9 ablation).
		case flatTxWait:
			if w.txCQ.PollInto(w.txBuf[:]) == 0 {
				if !w.txGate.Arm(w.task) {
					return false
				}
				continue
			}
			now := s.env.Now()
			w.spun(now)
			s.Trace.Span(trace.KindBusyWait, w.id, "busy-wait tx", f.waitStart, now, nil)
			s.pool.Release(f.req.Buf)
			f.req.Buf = nil
			w.pc = flatFinish

		case flatFinish:
			f.req.Finished = s.env.Now()
			s.Completed.Inc()
			if s.OnComplete != nil {
				f.req.Pkt.Held(f.req.pktUse, "completed")
				s.OnComplete(f.req)
			}
			f.done = true
			w.pc = flatClose

		case flatClose:
			w.pc = flatClosed
			if !w.task.Yield() {
				return false
			}

		case flatClosed:
			if s.Trace != nil {
				s.Trace.RunSpan(w.id, f.req.Pkt.ID, f.req.Pkt.Class, f.req.Faults,
					w.segStart, s.env.Now())
			}
			if f.done {
				s.retireFlat(f)
			}
			w.flat = nil
			w.pc = wLoop
			return true
		}
	}
}

// respond starts the request epilogue: the TX-post charge, after which
// the response goes out.
func (w *Worker) respond(resp any, respLen int) bool {
	w.resp, w.respLen = resp, respLen
	return w.charge(w.flat.req, w.sched.cfg.Costs.TxPost, flatTxPosted)
}

// park yields the core: the request pays the unithread switch and its
// segment closes; once woken (markReady) it continues at resume.
func (w *Worker) park(resume int) bool {
	f := w.flat
	f.resume = resume
	// Park state must be published before the switch charge: while it
	// elapses another worker's poll loop can run, and if the fetch this
	// request just joined completes there, markReady fires inside the
	// charge window. Setting flatWaiting afterwards would clobber its
	// flatWaiting→flatReady transition.
	f.advance(flatRunning, flatWaiting, "parked")
	return w.charge(f.req, w.sched.cfg.Costs.UnithreadSwitch, flatClose)
}

// preempt switches the request out of its core; it continues at resume
// once some worker re-schedules it.
func (w *Worker) preempt(resume int) bool {
	f := w.flat
	f.resume = resume
	f.req.Preemptions++
	return w.charge(f.req, w.sched.cfg.Costs.PreemptSwitch, flatRequeue)
}

// spun accounts the span since waitStart as time the request held its
// core spinning.
func (w *Worker) spun(now sim.Time) {
	f := w.flat
	span := now - f.waitStart
	f.req.BusyWait += span
	w.sched.busyWaitCycles += int64(span)
}

// sliced reports whether a compute charge must be cut at quantum
// boundaries (IPI preemption outside critical sections).
func (f *flatCtx) sliced() bool {
	cfg := &f.sched.cfg
	return cfg.Preempt && cfg.PreemptIPI && f.noPreempt == 0
}

// onReady is the fetch-completion callback (pre-bound in onReadyFn):
// record the outcome and let the request run again — wake its spinning
// core, or queue it on its worker.
func (f *flatCtx) onReady(err error) {
	f.ferr = err
	if f.sched.cfg.Wait == BusyWait {
		f.fired = true
		f.worker.cqGate.Wake()
		return
	}
	f.markReady()
}

// wake is the Block wake (pre-bound in wakeFn). A preemptive spin loop
// notices the flag at its next turn, wherever the request then is.
func (f *flatCtx) wake() {
	f.woken = true
	switch cfg := &f.sched.cfg; {
	case cfg.Wait == Yield:
		f.markReady()
	case !cfg.Preempt:
		f.worker.blockGate.Wake()
	}
}

// markReady queues the parked request on its worker's ready ring (step
// ⑧→⑨ of Figure 5).
func (f *flatCtx) markReady() {
	f.advance(flatWaiting, flatReady, "woken")
	w := f.worker
	w.ready.PushBack(f)
	if w.idle {
		w.idleGate.Wake()
	}
}

// advance moves the request along its lifecycle, and is the
// sched/flat-state oracle: the transition (event) must find it in the
// state it leaves.
func (f *flatCtx) advance(from, to int, event string) {
	if simcheck.On() && f.state != from {
		simcheck.Fail(simcheck.New("sched/flat-state", "request %s in the wrong state", event).
			With("state", f.state).With("want", from).With("worker", f.worker.id))
	}
	f.state = to
}

// ---- workload.StepCtx ----

// QP implements paging.QPSource: faults are issued on the carrying
// worker's queue pair to the page's owning memory node.
func (f *flatCtx) QP(node int) *rdma.QP { return f.worker.qps[node] }

// Rand implements workload.StepCtx.
func (f *flatCtx) Rand() *sim.RNG { return f.sched.env.Rand() }

// CriticalEnter implements workload.StepCtx.
func (f *flatCtx) CriticalEnter() { f.noPreempt++ }

// CriticalExit implements workload.StepCtx.
func (f *flatCtx) CriticalExit() {
	if f.noPreempt <= 0 {
		panic("sched: CriticalExit without CriticalEnter")
	}
	f.noPreempt--
}

// Charge implements workload.StepCtx: the inline half of a compute
// charge. A sliced charge is the machine's to cut.
func (f *flatCtx) Charge(d sim.Time) bool {
	w := f.worker
	if f.sliced() || !w.task.Elapse(d) {
		return false
	}
	w.owed, w.owedReq = d, f.req
	w.settle()
	return true
}

// ProbeFree implements workload.StepCtx: no probes in IPI mode or inside
// critical sections.
func (f *flatCtx) ProbeFree() bool {
	cfg := &f.sched.cfg
	return !cfg.Preempt || cfg.PreemptIPI || f.noPreempt > 0
}

// Block implements workload.StepCtx.
func (f *flatCtx) Block(enqueue func(wake func())) {
	f.woken = false
	enqueue(f.wakeFn)
}

// Fault implements workload.StepCtx.
func (f *flatCtx) Fault(sp *paging.Space, vpn int64) { f.faultSp, f.faultVpn = sp, vpn }

// TryPage implements workload.StepCtx: one probe of one page, recording
// the fault target on a miss. The re-probe after a completed fault takes
// the touch-only path (see Space.TryPage).
func (f *flatCtx) TryPage(sp *paging.Space, vpn int64) ([]byte, bool) {
	retry := f.retry && f.faultSp == sp && f.faultVpn == vpn
	f.retry = false
	page, ok := sp.TryPage(vpn, retry)
	if !ok {
		f.Fault(sp, vpn)
	}
	return page, ok
}
