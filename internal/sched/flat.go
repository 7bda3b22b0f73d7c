package sched

import (
	"encoding/binary"

	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file implements the flat unithread tier: requests whose app
// provides a workload.StepHandler execute inline on the worker core's own
// state machine, with no per-request stack and no gate ping-pong. Spawn
// is a struct reset from a free list, a fault parks an 80-byte StepFrame
// instead of a stack, completion re-queues the continuation on the
// worker's ready ring, and retire is a plain call — the paper's §3.2
// cost argument made literal.
//
// Determinism contract. The goroutine tier crosses the event queue at
// fixed points: the unithread-start event pushed by spawn, one resume
// push per fault park/resume round, and the run-gate wake that returns
// the core on yield or retire. Every flat execution segment is bracketed
// by Task.Yield calls — an arm at the current time — standing in for
// exactly those pushes: an opening one where the goroutine tier pushed
// the start/resume event, a closing one where the unithread pushed the
// worker's run-gate wake. The wheel therefore sees the same number of
// events in the same (at, seq) order and same-timestamp interleavings
// are bit-identical across tiers. Charging order, RNG draws, paging
// counters (via Space.TryPage's retry distinction), trace spans, and
// abort semantics are mirrored line for line against unithread.go; the
// differential tests pin the equivalence.

// Flat continuation lifecycle states (oracle sched/flat-state).
const (
	flatRunning = iota // on core, inside a bracketed segment
	flatWaiting        // parked on a pending fetch completion
	flatReady          // fetch done, queued on the worker's ready ring
)

// flatUnithread is the per-request record of the flat tier. It is the
// whole continuation: StepFrame plus fault bookkeeping, recycled through
// Scheduler.freeFlats.
type flatUnithread struct {
	sched  *Scheduler
	worker *Worker
	req    *Request
	frame  workload.StepFrame

	noPreempt int // critical-section depth (flat tier never preempts)

	// Fault-in-progress bookkeeping, the analogue of the goroutine
	// WaitPage's locals: the faulting page, when the fault began, whether
	// the next TryRequestPage round still counts as the demand access, and
	// the completion error (if the fetch was abandoned).
	faultSp     *paging.Space
	faultVpn    int64
	faultStart  sim.Time
	faultDemand bool
	ferr        error

	// retry marks that the next matching TryPage is the re-probe after a
	// completed fault (touch-only accounting; see Space.TryPage).
	retry bool

	state int  // flatRunning/flatWaiting/flatReady (oracle)
	done  bool // set at flatFinish; flatClosed retires after the span

	// onReadyFn is the bound completion callback, created once per
	// context so the fault path stays allocation-free across recycles.
	onReadyFn func(error)
}

// newFlat takes a recycled flat context (or builds one) for a dispatched
// request.
func (s *Scheduler) newFlat(w *Worker, req *Request) *flatUnithread {
	if n := len(s.freeFlats); n > 0 {
		f := s.freeFlats[n-1]
		s.freeFlats[n-1] = nil
		s.freeFlats = s.freeFlats[:n-1]
		orf := f.onReadyFn
		*f = flatUnithread{sched: s, worker: w, req: req, onReadyFn: orf}
		return f
	}
	f := &flatUnithread{sched: s, worker: w, req: req}
	f.onReadyFn = f.onReady
	return f
}

// retireFlat recycles a finished flat context and, if the dispatcher no
// longer holds its request, the request too (same two-owner protocol as
// retire).
func (s *Scheduler) retireFlat(f *flatUnithread) {
	req := f.req
	if req.Buf == nil {
		s.freeRequest(req)
	} else {
		req.retired = true // dispatcher recycles at TX completion
	}
	f.req, f.faultSp = nil, nil
	s.freeFlats = append(s.freeFlats, f)
}

// Flat-segment continuation points (Worker.pc). A segment runs from
// spawn or fault-resume up to the next fault park or completion.
const (
	flatOpen      = flatBase + iota // segment start: the opening yield
	flatBegin                       // request prologue
	flatJitter                      // kernel RX charge elapsed: scheduling-noise draw
	flatStep                        // run the handler's next step
	flatFaultOpen                   // fault-entry charge elapsed: open the fault
	flatFault                       // one round of the fault wait loop
	flatRequest                     // (re)issue the round's TryRequestPage
	flatFaultDone                   // the page is resident or the fetch was abandoned
	flatMapped                      // map charge elapsed: retry the access
	flatTxPosted                    // TX-post charge elapsed: kernel TX charge
	flatSend                        // transmit the response
	flatTxWait                      // SyncTx: wait for the TX completion
	flatFinish                      // completion accounting
	flatClose                       // segment end: the closing yield
	flatClosed                      // closing yield elapsed: span, retire
)

// fireFlat advances the flat segment on this core from pc. It reports
// false when the core armed or registered itself (fire must return) and
// true when the segment is over and the core is back at wLoop.
func (w *Worker) fireFlat() bool {
	s := w.sched
	c := &s.cfg.Costs
	f := w.flat
	for {
		switch w.pc {
		// The opening yield stands in for the start/resume event of the
		// goroutine tier (see the determinism contract above).
		case flatOpen:
			w.pc = flatBegin
			if w.resumed {
				if simcheck.On() && f.state != flatReady {
					simcheck.Fail(simcheck.New("sched/flat-state",
						"flat unithread resumed while not on the ready ring").
						With("state", f.state).With("worker", w.id))
				}
				f.state = flatRunning
				w.pc = flatFault
			}
			w.segStart = s.env.Now()
			if !w.task.Yield() {
				return false
			}

		// The request prologue, the analogue of body's entry: start
		// timestamps, kernel RX surcharge (Hermit), scheduling jitter (same
		// RNG draw order), then the handler's first step.
		case flatBegin:
			now := s.env.Now()
			f.req.Started = now
			f.req.QueueWait += now - f.req.Arrive
			s.stepH.Begin(&f.frame, f.req.Pkt.Payload)
			if !w.charge(f.req, c.KernelNetExtra, flatJitter) {
				return false
			}

		case flatJitter:
			w.pc = flatStep
			if c.JitterProb > 0 && s.env.Rand().Bool(c.JitterProb) &&
				!w.task.Sleep(s.env.Rand().Exp(c.JitterMean)) {
				return false
			}

		case flatStep:
			resp, respLen, cycles, st := s.stepH.Step(f, &f.frame, f.req.Pkt.Payload)
			switch st {
			case workload.StepCompute:
				if !w.charge(f.req, cycles, flatStep) {
					return false
				}
			case workload.StepFault:
				// TryLoad/TryStore recorded the page; enter the fault —
				// WaitPage's entry sequence: fault count, entry cost, marker.
				f.req.Faults++
				if !w.charge(f.req, s.mgr.Config().FaultEntryCost+c.KernelFaultExtra, flatFaultOpen) {
					return false
				}
			default:
				if !w.respond(resp, respLen) {
					return false
				}
			}

		case flatFaultOpen:
			f.faultStart = s.env.Now()
			s.Trace.Instant(trace.KindFetch, w.id, "fault", f.faultStart)
			f.ferr = nil
			f.faultDemand = true
			w.pc = flatFault

		// One round of WaitPage's yield-mode wait loop: if the page is (or
		// has become) resident the fault closes; if a fetch is in flight
		// the continuation parks, charging the unithread switch the
		// goroutine tier pays to yield the core.
		case flatFault:
			w.pc = flatRequest
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
				// Park state must be published before the switch charge:
				// while it elapses another worker's poll loop can run, and
				// if the fetch this continuation just joined completes
				// there, markReady fires inside the charge window. Setting
				// flatWaiting afterwards would clobber its
				// flatWaiting→flatReady transition.
				f.state = flatWaiting
				if !w.charge(f.req, c.UnithreadSwitch, flatClose) {
					return false
				}
			}

		// RDMA wait and map cost are accounted exactly as the goroutine
		// epilogue does.
		case flatFaultDone:
			ferr := f.ferr
			f.ferr = nil
			f.req.RDMAWait += s.env.Now() - f.faultStart
			if ferr != nil {
				// The demanded page could not be fetched within the retry
				// budget — the simulated SIGBUS the goroutine tier surfaces
				// as a *FetchError panic. Fail the request with the small
				// error response.
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
			pkt := f.req.Pkt
			pkt.Payload, pkt.Size, pkt.Ctx = w.resp, w.respLen, f.req
			w.txq.Send(pkt)
			w.pc = flatFinish // DelegatedTx: the dispatcher recycles the buffer on completion
			if s.cfg.Tx != DelegatedTx {
				w.txStart = s.env.Now()
				w.pc = flatTxWait
			}

		// Under SyncTx the worker core itself busy-waits on the TX
		// completion (the goroutine tier spins its unithread while the
		// worker waits on the run gate — one core burning either way, and
		// the same single wake event).
		case flatTxWait:
			if w.txCQ.PollInto(w.txBuf[:]) == 0 {
				if !w.txGate.Arm(w.task) {
					return false
				}
				continue
			}
			now := s.env.Now()
			span := now - w.txStart
			f.req.BusyWait += span
			s.busyWaitCycles += int64(span)
			s.Trace.Span(trace.KindBusyWait, w.id, "busy-wait tx", w.txStart, now, nil)
			s.pool.Release(f.req.Buf)
			f.req.Buf = nil
			w.pc = flatFinish

		case flatFinish:
			f.req.Finished = s.env.Now()
			s.Completed.Inc()
			if s.OnComplete != nil {
				s.OnComplete(f.req)
			}
			f.done = true
			w.pc = flatClose

		// The closing yield stands in for the run-gate wake of the
		// goroutine tier; after it the core emits the same run span
		// handoff would and retires a finished request.
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

// respond starts the request epilogue, the analogue of sendResponse:
// the TX-post charge, after which the response goes out.
func (w *Worker) respond(resp any, respLen int) bool {
	w.resp, w.respLen = resp, respLen
	return w.charge(w.flat.req, w.sched.cfg.Costs.TxPost, flatTxPosted)
}

// onReady is the fetch-completion callback (pre-bound in onReadyFn):
// record the outcome and queue the continuation on its worker.
func (f *flatUnithread) onReady(err error) {
	f.ferr = err
	f.markReady()
}

// markReady queues the continuation on the worker's ready ring — the
// flat analogue of Unithread.markReady, one slice append either way.
func (f *flatUnithread) markReady() {
	if simcheck.On() && f.state != flatWaiting {
		simcheck.Fail(simcheck.New("sched/flat-state",
			"flat unithread woken while not parked on a fetch").
			With("state", f.state).With("worker", f.worker.id))
	}
	f.state = flatReady
	w := f.worker
	w.ready.PushBack(readyItem{flat: f})
	if w.idle {
		w.idleGate.Wake()
	}
}

// ---- StepCtx and paging.QPSource for the flat tier ----

// QP implements paging.QPSource: faults are issued on the carrying
// worker's queue pair to the page's owning memory node.
func (f *flatUnithread) QP(node int) *rdma.QP { return f.worker.qps[node] }

// Rand implements workload.StepCtx.
func (f *flatUnithread) Rand() *sim.RNG { return f.sched.env.Rand() }

// Probe implements workload.StepCtx: free on a non-preemptive scheduler,
// exactly as for the goroutine tier.
func (f *flatUnithread) Probe() {}

// CriticalEnter implements workload.StepCtx.
func (f *flatUnithread) CriticalEnter() { f.noPreempt++ }

// CriticalExit implements workload.StepCtx.
func (f *flatUnithread) CriticalExit() {
	if f.noPreempt <= 0 {
		panic("sched: CriticalExit without CriticalEnter")
	}
	f.noPreempt--
}

// tryPage probes one page for an n-byte access at off, recording the
// fault target on a miss. Flat-tier accesses must not span pages (the
// resumable-step contract retries a single access).
func (f *flatUnithread) tryPage(sp *paging.Space, off, n int64) ([]byte, bool) {
	if off&(paging.PageSize-1) > paging.PageSize-n {
		panic("sched: flat-tier paged access spans pages")
	}
	vpn := off >> paging.PageShift
	retry := f.retry && f.faultSp == sp && f.faultVpn == vpn
	f.retry = false
	page, ok := sp.TryPage(vpn, retry)
	if ok {
		return page, true
	}
	f.faultSp, f.faultVpn = sp, vpn
	return nil, false
}

// TryLoadU64 implements workload.StepCtx.
func (f *flatUnithread) TryLoadU64(sp *paging.Space, off int64) (uint64, bool) {
	page, ok := f.tryPage(sp, off, 8)
	if !ok {
		return 0, false
	}
	po := off & (paging.PageSize - 1)
	return binary.LittleEndian.Uint64(page[po : po+8]), true
}

// TryStoreU64 implements workload.StepCtx.
func (f *flatUnithread) TryStoreU64(sp *paging.Space, off int64, v uint64) bool {
	if _, ok := f.tryPage(sp, off, 8); !ok {
		return false
	}
	// Write through DirtyPage's view: it materializes a zero-copy alias,
	// and the store must land in the frame's private copy.
	page := sp.DirtyPage(off >> paging.PageShift)
	po := off & (paging.PageSize - 1)
	binary.LittleEndian.PutUint64(page[po:po+8], v)
	return true
}
