package sched

import (
	"fmt"

	"repro/internal/ethernet"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/unithread"
	"repro/internal/workload"
)

// Scheduler is the MD scheduler: Config.Dispatchers dispatcher cores
// plus Config.Workers worker cores, wired to the client network, the
// RDMA fabric, and the paging manager. It is policy-parameterized so
// Adios, DiLOS, DiLOS-P, and Hermit are configurations of the same
// machinery.
type Scheduler struct {
	env   *sim.Env
	cfg   Config
	net   *ethernet.Net
	mgr   *paging.Manager
	pool  *unithread.Pool
	stepH workload.StepHandler // how a request executes, step by step (flat.go)

	central     ring[*Request]
	dispatchers []*dispatcher
	workers     []*Worker

	// Completed counts finished requests; OnComplete (if set) receives
	// each finished request record for measurement.
	Completed  stats.Counter
	OnComplete func(*Request)

	// FaultAborts counts requests failed because a demand fetch was
	// abandoned after bounded retries (Request.Failed is set on each).
	FaultAborts stats.Counter

	// Admit, if set, filters arriving packets before admission (e.g. the
	// transport layer's duplicate suppression). Rejected packets are
	// dropped silently and without consuming a unithread buffer.
	Admit func(*ethernet.Packet) bool

	// Trace, if set, records per-core execution spans (on-core stints,
	// busy-wait intervals, fault markers, dispatcher activity) for
	// chrome://tracing / Perfetto. Nil disables tracing at zero cost.
	Trace *trace.Recorder

	// DropsQueue counts requests shed at the full central queue;
	// DropsPool those shed because the unithread pool was exhausted.
	DropsQueue stats.Counter
	DropsPool  stats.Counter

	// Steals counts successful work-stealing transfers.
	Steals stats.Counter

	// cpuCycles aggregates all worker and request CPU; busyWaitCycles the
	// subset spent busy-waiting. Their ratio drives the "slashed"
	// queueing attribution of Figure 2(c).
	cpuCycles      int64
	busyWaitCycles int64
	dispCycles     int64

	// freeReqs recycles the per-request records (each with its bound
	// callbacks), so admission is allocation-free in steady state; reqs is
	// every record ever built, for the end-of-run audit.
	freeReqs []*Request
	reqs     []*Request
}

// FlatTier reports that requests run as native steps, with no coroutine
// behind them — always. It stays while the repository benchmark reports
// it as sched.flat_tier (ROADMAP item 2 retires that metric).
func (s *Scheduler) FlatTier() bool { return true }

// newRequest takes a record from the free list (or builds one) and
// resets it for an arriving packet, whose pool slot it now holds.
func (s *Scheduler) newRequest(pkt *ethernet.Packet) *Request {
	var r *Request
	if n := len(s.freeReqs); n > 0 {
		r = s.freeReqs[n-1]
		s.freeReqs = s.freeReqs[:n-1]
	} else {
		r = &Request{}
		r.onReadyFn, r.wakeFn = r.onReady, r.wake
		s.reqs = append(s.reqs, r)
	}
	*r = Request{Pkt: pkt, pktUse: pkt.Use(), Arrive: pkt.ArriveNode, slot: true,
		sched: s, queued: true, queuedAt: pkt.ArriveNode, resume: flatBegin,
		onReadyFn: r.onReadyFn, wakeFn: r.wakeFn}
	return r
}

// txReaped is the TX completion's half of the two-owner rule
// (Request.slot): it was polled, so the pool slot frees, and the record
// recycles if the worker has closed the request (flatClosed, its half).
func (s *Scheduler) txReaped(r *Request) {
	if r.slot {
		r.slot = false
		s.pool.Release()
	}
	if r.retired {
		s.freeRequest(r)
	}
}

// freeRequest returns a record neither owner holds any longer to the
// free list and gives up the node's half of its packet (ethernet.Owner).
// Nothing here reads the packet later in either TX mode: OnComplete has
// run, the run span is emitted, and the TX completion — still outstanding
// when a delegated-TX worker retires — names the request, not the packet.
func (s *Scheduler) freeRequest(r *Request) {
	r.Pkt.Held(r.pktUse, "retired")
	r.Pkt.Release(ethernet.Node)
	r.Pkt = nil // marks the record free (checkRunnable); the rest is reset on reuse
	s.freeReqs = append(s.freeReqs, r)
}

// dispatcher is one front-end core: it drains the RX ring into the
// central queue, recycles delegated TX completions, and assigns work to
// its partition of the workers. Like a Worker it is a polling loop run
// as a tier-1 task (see Worker): fire continues from pc, and what a
// blocking loop would hold on its stack across a charge lives in the
// continuation fields.
type dispatcher struct {
	id      int
	sched   *Scheduler
	task    *sim.Task
	pc      int
	gate    *sim.Gate
	txCQ    *rdma.CQ
	workers []*Worker
	rr      int

	txBuf [64]rdma.Completion  // TX completion-poll scratch (allocation-free)
	rxBuf [64]*ethernet.Packet // RX poll scratch (allocation-free)

	// Continuation state.
	owed     sim.Time // armed charge, credited once it has elapsed
	progress bool     // this pass of the loop did something
	n        int      // entries in rxBuf/txBuf awaiting their charge
	t0       sim.Time // when the RX poll began (poll span)
	item     *Request // popped from the central queue, awaiting the
	target   *Worker  // Dispatch charge, bound for target
}

// Dispatcher continuation points.
const (
	dPoll    = iota // top of the loop: poll the RX ring (also the start event)
	dAdmit          // RX charge elapsed: admit rxBuf[:n]
	dReap           // poll the delegated TX completions
	dRecycle        // TX charge elapsed: recycle txBuf[:n]
	dAssign         // hand queued work to a worker, or finish the pass
	dDeliver        // Dispatch charge elapsed: deliver item to target
)

// New wires a scheduler. fab carries one NIC per memory node; each
// worker gets one fetch QP per node, all completing on the worker's
// single fetch CQ, so the polling paths are node-count agnostic. stepH is
// the application's request handler. The caller starts the scheduler with
// Start after attaching OnComplete hooks.
func New(env *sim.Env, cfg Config, net *ethernet.Net, fab rdma.Fabric,
	mgr *paging.Manager, pool *unithread.Pool, stepH workload.StepHandler) *Scheduler {
	if cfg.Workers <= 0 {
		panic(fmt.Sprintf("sched: bad worker count %d", cfg.Workers))
	}
	if cfg.Dispatchers < 1 || cfg.Dispatchers > cfg.Workers {
		panic(fmt.Sprintf("sched: bad dispatcher count %d for %d workers", cfg.Dispatchers, cfg.Workers))
	}
	s := &Scheduler{
		env: env, cfg: cfg, net: net, mgr: mgr, pool: pool, stepH: stepH,
	}
	for d := 0; d < cfg.Dispatchers; d++ {
		disp := &dispatcher{
			id:    d,
			sched: s,
			gate:  sim.NewGate(env),
			txCQ:  rdma.NewCQ(fmt.Sprintf("d%d-tx", d)),
		}
		disp.task = sim.NewTask(env, fmt.Sprintf("dispatcher%d", d), disp.fire)
		s.dispatchers = append(s.dispatchers, disp)
	}
	for i := 0; i < cfg.Workers; i++ {
		disp := s.dispatchers[i%cfg.Dispatchers]
		w := &Worker{
			id:        i,
			sched:     s,
			disp:      disp,
			idleGate:  sim.NewGate(env),
			cqGate:    sim.NewGate(env),
			blockGate: sim.NewGate(env),
			txGate:    sim.NewGate(env),
		}
		w.task = sim.NewTask(env, fmt.Sprintf("worker%d", i), w.fire)
		w.cq = rdma.NewCQ(fmt.Sprintf("w%d-fetch", i))
		w.qps = fab.CreateQPs(fmt.Sprintf("w%d", i), w.cq)
		w.txCQ = rdma.NewCQ(fmt.Sprintf("w%d-tx", i))
		if cfg.Tx == DelegatedTx {
			w.txq = net.CreateTxQueue(fmt.Sprintf("w%d", i), disp.txCQ)
		} else {
			w.txq = net.CreateTxQueue(fmt.Sprintf("w%d", i), w.txCQ)
		}
		// Completion arrivals wake the core wherever it waits: idle (yield
		// mode) or busy-waiting on a fault.
		w.cq.Notify = func() {
			if w.idle {
				w.idleGate.Wake()
			}
			w.cqGate.Wake()
		}
		w.txCQ.Notify = w.txGate.Wake
		disp.workers = append(disp.workers, w)
		s.workers = append(s.workers, w)
	}
	net.RxNotify = s.wakeDispatchers
	for _, d := range s.dispatchers {
		d.txCQ.Notify = d.gate.Wake
	}
	return s
}

// wakeDispatchers wakes every dispatcher core.
func (s *Scheduler) wakeDispatchers() {
	for _, d := range s.dispatchers {
		d.gate.Wake()
	}
}

// Workers exposes the worker set (instrumentation, tests).
func (s *Scheduler) Workers() []*Worker { return s.workers }

// CPUCycles returns total worker-side CPU consumed so far.
func (s *Scheduler) CPUCycles() int64 { return s.cpuCycles }

// BusyWaitCycles returns worker-side cycles spent busy-waiting.
func (s *Scheduler) BusyWaitCycles() int64 { return s.busyWaitCycles }

// DispatcherCycles returns CPU consumed across dispatcher cores.
func (s *Scheduler) DispatcherCycles() int64 { return s.dispCycles }

// Start launches the worker and dispatcher cores: one start event each,
// whose firing enters the core's loop at the top.
func (s *Scheduler) Start() {
	now := s.env.Now()
	for _, w := range s.workers {
		w.task.FireAt(now)
	}
	for _, d := range s.dispatchers {
		d.task.FireAt(now)
	}
}

// charge consumes dispatcher-core CPU and continues at next; result and
// crediting as for Worker.charge.
func (d *dispatcher) charge(dt sim.Time, next int) bool {
	d.pc = next
	if dt <= 0 {
		return true
	}
	if !d.task.Sleep(dt) {
		d.owed = dt
		return false
	}
	d.sched.dispCycles += int64(dt)
	return true
}

// fire runs the single-queue dispatcher (§3.4) from pc: drain the RX
// ring into the central queue, recycle delegated TX completions, and
// hand requests to workers in policy order; a pass that did nothing
// waits on the gate.
func (d *dispatcher) fire() {
	s := d.sched
	c := &s.cfg.Costs
	s.dispCycles += int64(d.owed)
	d.owed = 0
	for {
		switch d.pc {
		case dPoll:
			d.progress = false
			d.pc = dReap
			if d.n = s.net.PollRxInto(d.rxBuf[:]); d.n > 0 {
				d.progress = true
				d.t0 = s.env.Now()
				if !d.charge(c.RxPollBatch+c.RxPerPacket*sim.Time(d.n), dAdmit) {
					return
				}
			}

		case dAdmit:
			s.Trace.PollSpan(1000+d.id, d.n, d.t0, s.env.Now())
			for _, pkt := range d.rxBuf[:d.n] {
				if s.Admit != nil && !s.Admit(pkt) {
					continue
				}
				if s.central.Len() >= s.cfg.CentralQueueCap {
					s.DropsQueue.Inc()
					continue
				}
				if !s.pool.Acquire() {
					s.DropsPool.Inc()
					continue
				}
				s.central.PushBack(s.newRequest(pkt))
			}
			d.pc = dReap

		case dReap:
			d.pc = dAssign
			if d.n = d.txCQ.PollInto(d.txBuf[:]); d.n > 0 {
				d.progress = true
				if !d.charge(c.TxCompletion*sim.Time(d.n), dRecycle) {
					return
				}
			}

		case dRecycle:
			for _, comp := range d.txBuf[:d.n] {
				s.txReaped(comp.Cookie.(*Request))
			}
			d.pc = dAssign

		case dAssign:
			if s.central.Len() > 0 {
				if w := d.pickWorker(); w != nil {
					d.progress = true
					d.item, d.target = s.central.PopFront(), w
					if !d.charge(c.Dispatch, dDeliver) {
						return
					}
					continue
				}
			}
			d.pc = dPoll
			if !d.progress && !d.gate.Arm(d.task) {
				return
			}

		case dDeliver:
			w := d.target
			w.inbox.PushBack(d.item)
			w.idle = false
			w.idleGate.Wake()
			d.pc = dAssign
		}
	}
}

// pickWorker selects a worker from this dispatcher's partition per the
// dispatch policy, or nil if none can accept work right now.
// PF-aware dispatching (Algorithm 1) prefers the idle worker with the
// fewest outstanding page fetches; round-robin cycles through idle
// workers; work-stealing assigns round-robin unconditionally (per-worker
// queues, ZygOS-style).
func (d *dispatcher) pickWorker() *Worker {
	switch d.sched.cfg.Dispatch {
	case PFAware:
		var best *Worker
		for _, w := range d.workers {
			if !w.idle {
				continue
			}
			if best == nil || w.Outstanding() < best.Outstanding() {
				best = w
			}
		}
		return best
	case WorkStealing:
		w := d.workers[d.rr%len(d.workers)]
		d.rr++
		return w
	default: // RoundRobin
		n := len(d.workers)
		for i := 0; i < n; i++ {
			w := d.workers[(d.rr+i)%n]
			if w.idle {
				d.rr = (d.rr + i + 1) % n
				return w
			}
		}
		return nil
	}
}
