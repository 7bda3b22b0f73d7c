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
// completion is waited for here or delegated. Spawn is a state edge of a
// record reset at admission, a parked request is its 80-byte StepFrame
// plus the bookkeeping beside it in Request, and retire is a plain call —
// the paper's §3.2 cost argument made literal.
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

// Request lifecycle states (oracle sched/flat-state).
const (
	flatFresh   = iota // admitted, never yet on a core: in the central queue or an inbox
	flatRunning        // on core, inside a bracketed segment
	flatWaiting        // parked, core freed: on a fetch completion or a Block wake
	flatReady          // woken, queued on its worker's ready ring
	flatQueued         // preempted, in the central queue or a worker's inbox
)

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
	r := w.req
	for {
		switch w.pc {
		case flatOpen:
			w.pc = flatResume
			w.segStart = s.env.Now()
			if !w.task.Yield() {
				return false
			}

		// The request continues where it stopped — a fresh one at its
		// prologue. One that came off a queue, fresh or preempted, waited
		// there since it went in, and its quantum starts now; one that
		// yielded keeps its quantum running.
		case flatResume:
			if r.queued {
				r.queued = false
				now := s.env.Now()
				r.QueueWait += now - r.queuedAt
				r.runStart = now
			}
			w.pc = r.resume

		// The request prologue: start timestamps, kernel RX surcharge
		// (Hermit), the preemption timer's fixed cost (DiLOS-P),
		// scheduling jitter, then the handler's first step.
		case flatBegin:
			r.Started = s.env.Now()
			s.stepH.Begin(&r.frame, r.Pkt.Payload)
			if !w.charge(r, c.KernelNetExtra, flatPrologue) {
				return false
			}

		case flatPrologue:
			var d sim.Time
			if s.cfg.Preempt {
				d = c.PreemptPerRequest
			}
			if !w.charge(r, d, flatJitter) {
				return false
			}

		case flatJitter:
			w.pc = flatStep
			if c.JitterProb > 0 && s.env.Rand().Bool(c.JitterProb) &&
				!w.task.Sleep(s.env.Rand().Exp(c.JitterMean)) { // the core is stolen: nobody's CPU
				return false
			}

		case flatStep:
			resp, respLen, cycles, st := s.stepH.Step(r, &r.frame, r.Pkt.Payload)
			switch st {
			case workload.StepCompute:
				if r.sliced() {
					r.left, w.pc = cycles, flatSlice
				} else if !w.charge(r, cycles, flatStep) {
					return false
				}
			case workload.StepProbe:
				if !r.ProbeFree() && !w.charge(r, c.PreemptProbe, flatProbed) {
					return false
				}
			case workload.StepBlock:
				w.pc = flatBlock
			case workload.StepFault:
				r.Faults++
				if !w.charge(r, s.mgr.Config().FaultEntryCost+c.KernelFaultExtra, flatFaultOpen) {
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
			remaining := s.cfg.Quantum - (s.env.Now() - r.runStart)
			switch {
			case r.left <= 0:
				w.pc = flatStep
			case remaining <= 0:
				if !w.charge(r, c.IPICost, flatIPI) {
					return false
				}
			default:
				step := min(r.left, remaining)
				r.left -= step
				if !w.charge(r, step, flatSlice) {
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
			if s.env.Now()-r.runStart < s.cfg.Quantum {
				w.pc = flatStep
			} else if !w.preempt(flatStep) {
				return false
			}

		// The request goes back to the central queue (Shinjuku-SQ
		// semantics) and the segment closes; whichever core the dispatcher
		// hands it to resumes it.
		case flatRequeue:
			r.advance(flatRunning, flatQueued, "preempted")
			r.queuedAt, r.queued = s.env.Now(), true
			s.central.PushBack(r)
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
			case r.woken:
				w.pc = flatStep
			case s.cfg.Wait == Yield:
				if !w.park(flatBlock) {
					return false
				}
			case !s.cfg.Preempt:
				r.waitStart = s.env.Now()
				w.pc = flatBlockSpin
			default:
				r.waitStart = s.env.Now()
				w.pc = flatBlockSpun
				if !w.task.Sleep(c.PreemptProbe + blockSpin) {
					return false
				}
			}

		case flatBlockSpin:
			if !r.woken {
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
			if now-r.runStart < s.cfg.Quantum {
				w.pc = flatBlock
			} else if !w.preempt(flatBlock) {
				return false
			}

		case flatFaultOpen:
			r.waitStart = s.env.Now()
			s.Trace.Instant(trace.KindFetch, w.id, "fault", r.waitStart)
			r.ferr = nil
			r.faultDemand = true
			w.pc = flatFault

		// One round of the fault wait loop — the heart of the
		// reproduction. If the page is (or has become) resident, or the
		// fetch was abandoned, the fault closes; otherwise the round
		// (re)issues the request and waits per policy.
		case flatFault:
			w.pc = flatRequest
			r.fired = false
			if r.ferr != nil || r.faultSp.Resident(r.faultVpn) {
				w.pc = flatFaultDone
			}

		// A stalled call (no frame, no QP slot) re-enters here when the
		// pool or the QP wakes the core: the call resumes inside the
		// manager, where a blocking caller would have been parked.
		case flatRequest:
			switch s.mgr.TryRequestPage(&w.call, w.task, r, r.faultSp, r.faultVpn, r.onReadyFn, r.faultDemand) {
			case paging.PageStalled:
				return false
			case paging.PageResident:
				w.pc = flatFaultDone
			default:
				r.faultDemand = false
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
			if r.fired || r.faultSp.Resident(r.faultVpn) {
				w.pc = flatFault
			} else if n := w.cq.PollInto(w.cqBuf[:16]); n > 0 {
				for _, comp := range w.cqBuf[:n] {
					s.mgr.CompleteOn(comp.Cookie.(*paging.Fetch), comp.Err, comp.QP)
				}
			} else if !w.cqGate.Arm(w.task) {
				return false
			}

		case flatFaultDone:
			ferr := r.ferr
			r.ferr = nil
			now := s.env.Now()
			if s.cfg.Wait == BusyWait {
				w.spun(now)
				s.Trace.Span(trace.KindBusyWait, w.id, "busy-wait fetch", r.waitStart, now, nil)
			}
			r.RDMAWait += now - r.waitStart
			if ferr != nil {
				// The demanded page could not be fetched within the retry
				// budget — the simulated SIGBUS. Fail the request, with a
				// (small) error response so client-side transport state is
				// not wedged; any abandoned critical section dies with it.
				s.stepH.Abort(&r.frame, ferr)
				s.FaultAborts.Inc()
				r.Failed = true
				r.noPreempt = 0
				if !w.respond(nil, abortRespBytes) {
					return false
				}
			} else if !w.charge(r, s.mgr.Config().MapCost, flatMapped) {
				return false
			}

		case flatMapped:
			// The page is resident and MapCost is paid; the re-run's
			// retried access takes the touch-only path.
			r.retry = true
			w.pc = flatStep

		case flatTxPosted:
			if !w.charge(r, c.KernelNetExtra, flatSend) { // kernel TX path (Hermit)
				return false
			}

		case flatSend:
			// The request itself rides the TX completion as its cookie.
			pkt := r.Pkt
			pkt.Payload, pkt.Size = w.resp, w.respLen
			w.txq.Send(pkt, r)
			w.pc = flatFinish // DelegatedTx: the dispatcher reaps the completion (Figure 6)
			if s.cfg.Tx != DelegatedTx {
				r.waitStart = s.env.Now()
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
			s.Trace.Span(trace.KindBusyWait, w.id, "busy-wait tx", r.waitStart, now, nil)
			s.txReaped(r)
			w.pc = flatFinish

		case flatFinish:
			r.Finished = s.env.Now()
			s.Completed.Inc()
			if s.OnComplete != nil {
				r.Pkt.Held(r.pktUse, "completed")
				s.OnComplete(r)
			}
			r.done = true
			w.pc = flatClose

		case flatClose:
			w.pc = flatClosed
			if !w.task.Yield() {
				return false
			}

		case flatClosed:
			if s.Trace != nil {
				s.Trace.RunSpan(w.id, r.Pkt.ID, r.Pkt.Class, r.Faults,
					w.segStart, s.env.Now())
			}
			if r.done {
				r.retired = true // the worker's half of the two-owner rule (Request.slot)
				if !r.slot {
					s.freeRequest(r)
				}
			}
			w.req = nil
			w.pc = wLoop
			return true
		}
	}
}

// respond starts the request epilogue: the TX-post charge, after which
// the response goes out.
func (w *Worker) respond(resp any, respLen int) bool {
	w.resp, w.respLen = resp, respLen
	return w.charge(w.req, w.sched.cfg.Costs.TxPost, flatTxPosted)
}

// park yields the core: the request pays the unithread switch and its
// segment closes; once woken (markReady) it continues at resume.
func (w *Worker) park(resume int) bool {
	r := w.req
	r.resume = resume
	// Park state must be published before the switch charge: while it
	// elapses another worker's poll loop can run, and if the fetch this
	// request just joined completes there, markReady fires inside the
	// charge window. Setting flatWaiting afterwards would clobber its
	// flatWaiting→flatReady transition.
	r.advance(flatRunning, flatWaiting, "parked")
	return w.charge(r, w.sched.cfg.Costs.UnithreadSwitch, flatClose)
}

// preempt switches the request out of its core; it continues at resume
// once some worker re-schedules it.
func (w *Worker) preempt(resume int) bool {
	r := w.req
	r.resume = resume
	r.Preemptions++
	return w.charge(r, w.sched.cfg.Costs.PreemptSwitch, flatRequeue)
}

// spun accounts the span since waitStart as time the request held its
// core spinning.
func (w *Worker) spun(now sim.Time) {
	r := w.req
	span := now - r.waitStart
	r.BusyWait += span
	w.sched.busyWaitCycles += int64(span)
}

// sliced reports whether a compute charge must be cut at quantum
// boundaries (IPI preemption outside critical sections).
func (r *Request) sliced() bool {
	cfg := &r.sched.cfg
	return cfg.Preempt && cfg.PreemptIPI && r.noPreempt == 0
}

// onReady is the fetch-completion callback (pre-bound in onReadyFn):
// record the outcome and let the request run again — wake its spinning
// core, or queue it on its worker.
func (r *Request) onReady(err error) {
	r.ferr = err
	if r.sched.cfg.Wait == BusyWait {
		r.fired = true
		r.worker.cqGate.Wake()
		return
	}
	r.markReady()
}

// wake is the Block wake (pre-bound in wakeFn). A preemptive spin loop
// notices the flag at its next turn, wherever the request then is.
func (r *Request) wake() {
	r.woken = true
	switch cfg := &r.sched.cfg; {
	case cfg.Wait == Yield:
		r.markReady()
	case !cfg.Preempt:
		r.worker.blockGate.Wake()
	}
}

// markReady queues the parked request on its worker's ready ring (step
// ⑧→⑨ of Figure 5).
func (r *Request) markReady() {
	r.advance(flatWaiting, flatReady, "woken")
	w := r.worker
	w.ready.PushBack(r)
	if w.idle {
		w.idleGate.Wake()
	}
}

// advance moves the request along its lifecycle, and is the
// sched/flat-state oracle: the transition (event) must find it in the
// state it leaves.
func (r *Request) advance(from, to int, event string) {
	if simcheck.On() && r.state != from {
		simcheck.Fail(simcheck.New("sched/flat-state", "request %s in the wrong state", event).
			With("state", r.state).With("want", from).With("worker", r.worker.id))
	}
	r.state = to
}

// ---- workload.StepCtx ----

// QP implements paging.QPSource: faults are issued on the carrying
// worker's queue pair to the page's owning memory node.
func (r *Request) QP(node int) *rdma.QP { return r.worker.qps[node] }

// Rand implements workload.StepCtx.
func (r *Request) Rand() *sim.RNG { return r.sched.env.Rand() }

// CriticalEnter implements workload.StepCtx.
func (r *Request) CriticalEnter() { r.noPreempt++ }

// CriticalExit implements workload.StepCtx.
func (r *Request) CriticalExit() {
	if r.noPreempt <= 0 {
		panic("sched: CriticalExit without CriticalEnter")
	}
	r.noPreempt--
}

// ProbeFree implements workload.StepCtx: no probes in IPI mode or inside
// critical sections.
func (r *Request) ProbeFree() bool {
	cfg := &r.sched.cfg
	return !cfg.Preempt || cfg.PreemptIPI || r.noPreempt > 0
}

// Block implements workload.StepCtx.
func (r *Request) Block(enqueue func(wake func())) {
	r.woken = false
	enqueue(r.wakeFn)
}

// Fault implements workload.StepCtx.
func (r *Request) Fault(sp *paging.Space, vpn int64) { r.faultSp, r.faultVpn = sp, vpn }

// TryPage implements workload.StepCtx: one probe of one page, recording
// the fault target on a miss. The re-probe after a completed fault takes
// the touch-only path (see Space.TryPage).
func (r *Request) TryPage(sp *paging.Space, vpn int64) ([]byte, bool) {
	retry := r.retry && r.faultSp == sp && r.faultVpn == vpn
	r.retry = false
	page, ok := sp.TryPage(vpn, retry)
	if !ok {
		r.Fault(sp, vpn)
	}
	return page, ok
}
