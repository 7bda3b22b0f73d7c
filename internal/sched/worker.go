package sched

import (
	"repro/internal/ethernet"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// Worker is one request-processing core. It owns a page-fetch QP (whose
// depth the PF-aware dispatcher inspects), a fetch CQ, and a TX queue.
// Under the yield policy a worker multiplexes many parked requests;
// under busy-wait it runs exactly one request at a time.
//
// The core is a run-to-completion polling loop (§3.3) and runs as a
// tier-1 task: fire executes it from the continuation point pc until
// simulated time must pass, and every such point — a cycle charge
// (Task.Sleep), a yield bracket, a gate or slot wait (Gate.Arm) — is
// "record where to continue, arm or register the task, return". The loop
//
//	for { poll CQ; resume a ready request | start a request | steal | idle }
//
// is what fire spells out; everything a direct-style loop would keep on
// its stack across a wait lives in the continuation fields below.
type Worker struct {
	id    int
	sched *Scheduler
	disp  *dispatcher
	task  *sim.Task
	pc    int // continuation point (w* in this file, flat* in flat.go)

	qps []*rdma.QP // page-fetch queue pairs, one per memory node
	cq  *rdma.CQ   // page-fetch completions (all nodes), polled by this worker

	txq    *ethernet.TxQueue
	txCQ   *rdma.CQ // own TX completions (SyncTx mode only)
	txGate *sim.Gate

	idleGate  *sim.Gate // the core waits here when it has no runnable work
	cqGate    *sim.Gate // … here for fetch-CQ arrivals while a fault busy-waits
	blockGate *sim.Gate // … and here for the wake while a Block busy-waits

	inbox ring[*Request] // assigned by the dispatcher (at most one pending)
	ready ring[*Request] // woken requests awaiting resume
	idle  bool

	cqBuf [32]rdma.Completion // fetch-CQ poll scratch (steady state is allocation-free)
	txBuf [4]rdma.Completion  // SyncTx completion-poll scratch

	busyCycles int64 // CPU consumed on this core (loop + requests)

	// Continuation state. owed is an armed charge, credited (to owedReq's
	// handler CPU too, when set) once it has elapsed.
	owed     sim.Time
	owedReq  *Request
	ncq      int              // completions in cqBuf awaiting the poll charge
	work     *Request         // stolen request awaiting the transfer charge
	stealJ   int              // next peer offset the steal scan probes
	req      *Request         // request whose segment is on the core
	segStart sim.Time         // when the current on-core stint began (run span)
	call     paging.FaultCall // the fault's TryRequestPage, across stalls
	resp     any              // response awaiting the TX-post charges
	respLen  int
}

// Worker-loop continuation points.
const (
	wLoop    = iota // top of the loop: poll the fetch CQ (also the start event)
	wPolled         // CQ-poll charge elapsed: apply cqBuf[:ncq]
	wPick           // choose: ready request, inbox, steal, or idle
	wSteal          // probe peer stealJ, or give up and idle
	wProbed         // probe charge elapsed: look into the victim's inbox
	wStolen         // transfer charge elapsed: run the stolen item
	wWoken          // idle-gate wake
	flatBase        // first request point (flat.go)
)

// ID returns the worker's index.
func (w *Worker) ID() int { return w.id }

// BusyCycles returns the CPU cycles consumed on this worker core,
// including the requests it hosted. Busy-wait spans are not included
// (they are tracked separately as BusyWaitCycles).
func (w *Worker) BusyCycles() int64 { return w.busyCycles }

// Outstanding reports the worker's in-flight page fetches summed over
// its per-node QPs — the congestion signal of Algorithm 1.
func (w *Worker) Outstanding() int {
	n := 0
	for _, qp := range w.qps {
		n += qp.Outstanding()
	}
	return n
}

// charge consumes d cycles of this core's CPU — req's handler's when req
// is set, else the worker loop's own (polling, switching) — and
// continues at next. It reports whether the cycles elapsed inline. If
// not the task is armed for the wake time and fire must return; the
// cycles are credited when it fires, so a charge cut by the run horizon
// counts for nothing.
func (w *Worker) charge(req *Request, d sim.Time, next int) bool {
	w.pc = next
	if d <= 0 {
		return true
	}
	w.owed, w.owedReq = d, req
	if !w.task.Sleep(d) {
		return false
	}
	w.settle()
	return true
}

// settle credits the charge that has just elapsed, if any.
func (w *Worker) settle() {
	d := w.owed
	if d == 0 {
		return
	}
	w.owed = 0
	if w.owedReq != nil { // charge sets it with every owed
		w.owedReq.CPU += d
	}
	w.busyCycles += int64(d)
	w.sched.cpuCycles += int64(d)
}

// fire runs the worker's scheduling loop from pc. Order follows §3.3:
// poll the fetch CQ once, resume ready requests before starting new
// ones, otherwise report idle and wait.
func (w *Worker) fire() {
	w.settle()
	s := w.sched
	c := &s.cfg.Costs
	for {
		switch w.pc {
		case wLoop:
			w.pc = wPick
			if s.cfg.Wait == Yield {
				if w.ncq = w.cq.PollInto(w.cqBuf[:]); w.ncq > 0 && !w.charge(nil, c.CQPoll, wPolled) {
					return
				}
			}

		case wPolled:
			for _, comp := range w.cqBuf[:w.ncq] {
				s.mgr.CompleteOn(comp.Cookie.(*paging.Fetch), comp.Err, comp.QP)
			}
			w.pc = wPick

		case wPick:
			switch {
			case w.ready.Len() > 0:
				w.req = w.ready.PopFront()
				w.req.advance(flatReady, flatRunning, "resumed from the ready ring")
				if !w.charge(nil, c.UnithreadSwitch, flatOpen) {
					return
				}
			case w.inbox.Len() > 0:
				if !w.run(w.inbox.PopFront()) {
					return
				}
			case s.cfg.Dispatch == WorkStealing:
				w.stealJ, w.pc = 1, wSteal
			default:
				if !w.goIdle() {
					return
				}
			}

		// The steal scan visits peer queues in ring order and takes one
		// item from the first non-empty one's tail — the ZygOS-style
		// approximation of a central queue. Each probed victim costs
		// StealProbe; a hit costs StealTransfer.
		case wSteal:
			if w.stealJ >= len(s.workers) {
				if !w.goIdle() {
					return
				}
			} else if !w.charge(nil, c.StealProbe, wProbed) {
				return
			}

		case wProbed:
			v := s.workers[(w.id+w.stealJ)%len(s.workers)]
			if v.inbox.Len() == 0 {
				w.stealJ, w.pc = w.stealJ+1, wSteal
				continue
			}
			w.work = v.inbox.PopBack()
			if !w.charge(nil, c.StealTransfer, wStolen) {
				return
			}

		case wStolen:
			s.Steals.Inc()
			if !w.run(w.work) {
				return
			}

		case wWoken:
			w.idle = false
			w.pc = wLoop

		default:
			if !w.fireFlat() {
				return
			}
		}
	}
}

// goIdle reports the core free to the dispatcher and waits for work. It
// reports whether a wake was already pending (the loop continues inline).
func (w *Worker) goIdle() bool {
	w.idle = true
	w.disp.gate.Wake() // tell the dispatcher a core freed up
	w.pc = wWoken
	return w.idleGate.Arm(w.task)
}

// run puts a request on the core: a fresh one, or a preempted one some
// core switched out. Like charge, it reports whether fire may continue
// inline.
func (w *Worker) run(r *Request) bool {
	c := &w.sched.cfg.Costs
	r.worker, w.req = w, r
	if r.state == flatQueued {
		r.advance(flatQueued, flatRunning, "resumed from the queue")
		return w.charge(nil, c.PreemptSwitch, flatOpen)
	}
	r.advance(flatFresh, flatRunning, "spawned")
	r.Dispatched = w.sched.env.Now()
	return w.charge(nil, c.UnithreadSpawn+c.UnithreadSwitch, flatOpen)
}
