package sched

import (
	"repro/internal/ethernet"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// readyItem is one entry on a worker's ready ring: a fetch-completed
// unithread awaiting its core, from whichever tier. A configuration runs
// all requests on one tier, so the two pointers never mix within a run;
// FIFO order across the ring is the resume order either way.
type readyItem struct {
	u    *Unithread
	flat *flatUnithread
}

// Worker is one request-processing core. It owns a page-fetch QP (whose
// depth the PF-aware dispatcher inspects), a fetch CQ, and a TX queue.
// Under the yield policy a worker multiplexes many blocked unithreads;
// under busy-wait it runs exactly one request at a time.
//
// The core is a run-to-completion polling loop (§3.3) and runs as a
// tier-1 task: fire executes it from the continuation point pc until
// simulated time must pass, and every such point — a cycle charge, a
// yield bracket, a gate or slot wait — is "record where to continue,
// arm or register the task, return". A charge is a Task.Sleep, a wait is
// a Gate.Arm, so each costs the one wheel push a stackful core's park
// would and the (at, seq) schedule is that of a blocking loop
//
//	for { poll CQ; resume a ready unithread | start a request | steal | idle }
//
// written in direct style. Everything such a loop would keep on its
// stack across a park lives in the continuation fields below.
type Worker struct {
	id    int
	sched *Scheduler
	disp  *dispatcher
	task  *sim.Task
	pc    int // continuation point (w* in this file, f* in flat.go)

	qps []*rdma.QP // page-fetch queue pairs, one per memory node
	cq  *rdma.CQ   // page-fetch completions (all nodes), polled by this worker

	txq    *ethernet.TxQueue
	txCQ   *rdma.CQ // own TX completions (SyncTx mode only)
	txGate *sim.Gate

	runGate  *sim.Gate // worker waits here while a goroutine-tier unithread runs
	idleGate *sim.Gate // worker waits here when it has no runnable work
	cqGate   *sim.Gate // busy-waiting unithreads park here for CQ arrivals

	inbox ring[workItem]  // assigned by the dispatcher (at most one pending)
	ready ring[readyItem] // fetch-completed unithreads awaiting resume
	idle  bool

	cqBuf [32]rdma.Completion // fetch-CQ poll scratch (steady state is allocation-free)
	txBuf [4]rdma.Completion  // SyncTx completion-poll scratch

	busyCycles int64 // CPU consumed on this core (loop + unithreads)

	// Continuation state. owed is an armed charge, credited (to owedReq's
	// handler CPU too, when set) once it has elapsed.
	owed     sim.Time
	owedReq  *Request
	ncq      int              // completions in cqBuf awaiting the poll charge
	work     workItem         // stolen item awaiting the transfer charge
	stealJ   int              // next peer offset the steal scan probes
	current  *Unithread       // goroutine-tier unithread holding the core
	flat     *flatUnithread   // flat unithread whose segment is on the core
	resumed  bool             // that segment resumes a fault (vs. starts the request)
	segStart sim.Time         // when the current on-core stint began (run span)
	call     paging.FaultCall // the flat fault's TryRequestPage, across stalls
	resp     any              // response awaiting the TX-post charges
	respLen  int
	txStart  sim.Time // SyncTx: when the wait for the TX completion began
}

// Worker-loop continuation points.
const (
	wLoop     = iota // top of the loop: poll the fetch CQ (also the start event)
	wPolled          // CQ-poll charge elapsed: apply cqBuf[:ncq]
	wPick            // choose: ready unithread, inbox, steal, or idle
	wSteal           // probe peer stealJ, or give up and idle
	wProbed          // probe charge elapsed: look into the victim's inbox
	wStolen          // transfer charge elapsed: run the stolen item
	wWoken           // idle-gate wake
	wSpawned         // spawn charge elapsed (goroutine tier): start the unithread
	wHandoff         // hand the core to current
	wReturned        // run-gate wake: current yielded, was preempted, or retired
	flatBase         // first flat-tier point (flat.go)
)

// ID returns the worker's index.
func (w *Worker) ID() int { return w.id }

// BusyCycles returns the CPU cycles consumed on this worker core,
// including the unithreads it hosted. Busy-wait spans are not included
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
	if w.owedReq != nil {
		w.owedReq.CPU += d
		w.owedReq = nil
	}
	w.busyCycles += int64(d)
	w.sched.cpuCycles += int64(d)
}

// fire runs the worker's scheduling loop from pc. Order follows §3.3:
// poll the fetch CQ once, resume ready unithreads before starting new
// requests, otherwise report idle and wait.
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
				item := w.ready.PopFront()
				next := wHandoff
				if item.flat != nil {
					w.flat, w.resumed, next = item.flat, true, flatOpen
				} else {
					w.current = item.u
				}
				if !w.charge(nil, c.UnithreadSwitch, next) {
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

		case wSpawned:
			s.env.Go("unithread", w.current.bodyFn)
			w.pc = wHandoff

		// Handoff transfers the core to the unithread until it yields, is
		// preempted, or retires.
		case wHandoff:
			w.segStart = s.env.Now()
			w.current.gate.Wake()
			w.pc = wReturned
			if !w.runGate.Arm(w.task) {
				return
			}

		case wReturned:
			u := w.current
			w.current = nil
			if s.Trace != nil {
				s.Trace.RunSpan(w.id, u.req.Pkt.ID, u.req.Pkt.Class, u.req.Faults,
					w.segStart, s.env.Now())
			}
			if u.finished {
				s.retire(u)
			}
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

// run starts one work item: a fresh request or a migrated preempted
// unithread. Like charge, it reports whether fire may continue inline.
func (w *Worker) run(item workItem) bool {
	s := w.sched
	c := &s.cfg.Costs
	if u := item.resumed; u != nil {
		u.worker = w
		w.current = u
		return w.charge(nil, c.PreemptSwitch, wHandoff)
	}
	// Spawn a unithread for the new request — on the flat tier when the
	// app's step handler qualifies, else goroutine-backed.
	req := item.req
	req.Dispatched = s.env.Now()
	if s.flat {
		w.flat, w.resumed = s.newFlat(w, req), false
		return w.charge(nil, c.UnithreadSpawn+c.UnithreadSwitch, flatOpen)
	}
	w.current = s.newUnithread(w, req)
	return w.charge(nil, c.UnithreadSpawn+c.UnithreadSwitch, wSpawned)
}
