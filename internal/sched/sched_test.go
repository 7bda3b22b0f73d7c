package sched

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/unithread"
	"repro/internal/workload"
)

// rig wires a scheduler with a trivial paged array app.
type rig struct {
	env   *sim.Env
	net   *ethernet.Net
	nic   *rdma.NIC
	mgr   *paging.Manager
	pool  *unithread.Pool
	sched *Scheduler
	space *paging.Space
}

// phases is a test request handler written as a list of phases, one run
// per Step from the frame's PC. A phase returns what the request needs:
// after StepCompute or StepProbe the next phase runs at the next Step,
// after StepFault or StepBlock the same phase runs again, and StepDone
// goes on to the next phase at once. Past the last phase the request
// answers its payload in 64 bytes.
type phases []func(ctx workload.StepCtx, payload any) (sim.Time, workload.StepStatus)

func (phases) Begin(*workload.StepFrame, any)   {}
func (phases) Abort(*workload.StepFrame, error) {}

func (p phases) Step(ctx workload.StepCtx, f *workload.StepFrame, payload any) (any, int, sim.Time, workload.StepStatus) {
	for int(f.PC) < len(p) {
		cycles, st := p[f.PC](ctx, payload)
		if st == workload.StepFault || st == workload.StepBlock {
			return nil, 0, 0, st
		}
		if f.PC++; st != workload.StepDone {
			return nil, 0, cycles, st
		}
	}
	return payload, 64, 0, workload.StepDone
}

func compute(d sim.Time) func(workload.StepCtx, any) (sim.Time, workload.StepStatus) {
	return func(workload.StepCtx, any) (sim.Time, workload.StepStatus) { return d, workload.StepCompute }
}

func probe(workload.StepCtx, any) (sim.Time, workload.StepStatus) { return 0, workload.StepProbe }

// load reads the page the payload names.
func (r *rig) load(ctx workload.StepCtx, payload any) (sim.Time, workload.StepStatus) {
	if _, ok := ctx.TryPage(r.space, payload.(int64)); !ok {
		return 0, workload.StepFault
	}
	return 0, workload.StepDone
}

// newRig builds the rig around handler, or, if nil, a request that
// computes, probes and reads the page its payload names.
func newRig(t *testing.T, cfg Config, handler workload.StepHandler, localPages int64) *rig {
	t.Helper()
	env := sim.NewEnv(5)
	r := &rig{
		env:  env,
		net:  ethernet.New(env, ethernet.DefaultConfig()),
		nic:  rdma.NewNIC(env, rdma.DefaultConfig()),
		mgr:  paging.NewManager(env, paging.DefaultConfig(localPages*paging.PageSize)),
		pool: unithread.NewPool(4096),
	}
	node := memnode.New(1 << 30)
	r.space = r.mgr.NewSpace("data", node.MustAlloc("data", 256*paging.PageSize))
	if handler == nil {
		handler = phases{compute(500), probe, r.load}
	}
	r.sched = New(env, cfg, r.net, rdma.Fabric{r.nic}, r.mgr, r.pool, handler)
	r.sched.Start()
	rcq := rdma.NewCQ("reclaim")
	r.mgr.StartReclaimer(r.nic.CreateQP("reclaim", rcq), rcq)
	return r
}

// inject sends n requests with the given payloads spaced by gap cycles.
func (r *rig) inject(payloads []int64, gap sim.Time) {
	at := sim.Time(1)
	for i, p := range payloads {
		p := p
		id := uint64(i)
		r.env.At(at, func() {
			r.net.SendToNode(&ethernet.Packet{ID: id, Payload: p, Size: 64, TxTime: r.env.Now()})
		})
		at += gap
	}
}

// carrier returns the worker whose core a request is running on.
func carrier(ctx workload.StepCtx) *Worker { return ctx.(*Request).worker }

func TestRequestsCompleteBothPolicies(t *testing.T) {
	for _, wait := range []WaitPolicy{BusyWait, Yield} {
		cfg := DefaultConfig()
		cfg.Wait = wait
		r := newRig(t, cfg, nil, 64)
		payloads := make([]int64, 200)
		for i := range payloads {
			payloads[i] = int64(i % 256)
		}
		r.inject(payloads, sim.Micros(1))
		r.env.Run(sim.Millis(20))
		if got := r.sched.Completed.Value(); got != 200 {
			t.Fatalf("wait=%v completed = %d, want 200", wait, got)
		}
		if r.pool.InUse() != 0 {
			t.Fatalf("wait=%v leaked %d unithread buffers", wait, r.pool.InUse())
		}
	}
}

func TestBusyWaitAccountedOnlyUnderBusyWait(t *testing.T) {
	for _, wait := range []WaitPolicy{BusyWait, Yield} {
		cfg := DefaultConfig()
		cfg.Wait = wait
		if wait == BusyWait {
			cfg.Tx = SyncTx
		}
		r := newRig(t, cfg, nil, 16) // small cache: plenty of faults
		payloads := make([]int64, 100)
		for i := range payloads {
			payloads[i] = int64((i * 37) % 256)
		}
		r.inject(payloads, sim.Micros(2))
		r.env.Run(sim.Millis(20))
		busy := r.sched.BusyWaitCycles()
		if wait == BusyWait && busy == 0 {
			t.Fatal("busy-wait policy recorded no busy cycles")
		}
		if wait == Yield && busy != 0 {
			t.Fatalf("yield policy recorded %d busy cycles", busy)
		}
	}
}

// TestDispatcherCyclesCountEveryCharge: every request of a burst costs
// the dispatcher its per-packet RX handling and one assignment, and the
// burst at least one RX poll — whether a charge ran inline or, with
// other cores' events due first, as a timed wait credited when it ends.
func TestDispatcherCyclesCountEveryCharge(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, phases{compute(500)}, 16)
	const n = 50
	r.inject(make([]int64, n), 100)
	r.env.Run(sim.Millis(2))
	c := cfg.Costs
	if got, min := r.sched.DispatcherCycles(), int64(n*(c.RxPerPacket+c.Dispatch)+c.RxPollBatch); got < min {
		t.Fatalf("dispatcher cycles %d, want at least %d", got, min)
	}
}

func TestPFAwarePicksLeastLoadedWorker(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dispatch = PFAware
	var picked *Worker
	r := newRig(t, cfg, phases{func(ctx workload.StepCtx, _ any) (sim.Time, workload.StepStatus) {
		picked = carrier(ctx)
		return 500, workload.StepCompute
	}}, 64)

	// Give every worker an artificial outstanding-fetch imbalance by
	// posting large dummy reads on their QPs (in flight for >100us, far
	// past the observation), then observe where the next request lands.
	remote := make([]byte, 1<<20)
	s := r.sched
	r.env.At(1, func() {
		for i, w := range s.workers {
			for k := 0; k <= i; k++ {
				if i == 2 {
					break // worker 2 stays least loaded
				}
				if err := w.qps[0].PostRead(make([]byte, 1<<20), remote, nil); err != nil {
					t.Error(err)
				}
			}
		}
	})
	// All workers idle; dispatch one request shortly after.
	r.env.At(10, func() {
		r.net.SendToNode(&ethernet.Packet{ID: 1, Payload: int64(3), Size: 64})
	})
	// Stop before the dummy reads complete (their nil cookies are not
	// real fetches).
	r.env.Run(sim.Micros(50))
	if picked == nil {
		t.Fatal("no worker picked")
	}
	if picked.id != 2 {
		t.Fatalf("PF-aware picked worker %d, want 2 (least outstanding)", picked.id)
	}
}

func TestPreemptionRequeuesLongTasks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Wait = BusyWait
	cfg.Tx = SyncTx
	cfg.Preempt = true
	cfg.Quantum = sim.Micros(5)
	var long phases
	for i := 0; i < 40; i++ {
		long = append(long, compute(1000), probe) // 20us of compute with probes
	}
	r := newRig(t, cfg, long, 64)
	preemptions := 0
	r.sched.OnComplete = func(req *Request) { preemptions += req.Preemptions }
	payloads := make([]int64, 50)
	r.inject(payloads, sim.Micros(1))
	r.env.Run(sim.Millis(50))
	if got := r.sched.Completed.Value(); got != 50 {
		t.Fatalf("completed = %d, want 50", got)
	}
	if preemptions == 0 {
		t.Fatal("20us tasks with a 5us quantum were never preempted")
	}
}

func TestNoPreemptionWithoutProbesInFaultPath(t *testing.T) {
	// A fault-heavy, compute-light workload under DiLOS-P: busy-waiting
	// contains no probes, so preemptions stay rare even with long waits.
	cfg := DefaultConfig()
	cfg.Wait = BusyWait
	cfg.Tx = SyncTx
	cfg.Preempt = true
	cfg.Quantum = sim.Micros(5)
	r := newRig(t, cfg, nil, 8) // tiny cache: almost every request faults
	preempted := 0
	r.sched.OnComplete = func(req *Request) { preempted += req.Preemptions }
	payloads := make([]int64, 100)
	for i := range payloads {
		payloads[i] = int64((i * 13) % 256)
	}
	r.inject(payloads, sim.Micros(1))
	r.env.Run(sim.Millis(50))
	if r.sched.Completed.Value() != 100 {
		t.Fatalf("completed = %d", r.sched.Completed.Value())
	}
	// One fault is ~2.5us < quantum; single-access requests should not
	// accumulate 5us of probed compute.
	if preempted > 5 {
		t.Fatalf("preemptions = %d; busy-wait should be invisible to the preemptive scheduler", preempted)
	}
}

func TestCentralQueueBoundsAndDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CentralQueueCap = 16
	r := newRig(t, cfg, phases{compute(sim.Micros(50))}, 64) // slow handler to back up the queue
	payloads := make([]int64, 400)
	r.inject(payloads, 100) // ~20M RPS burst
	r.env.Run(sim.Millis(60))
	if r.sched.DropsQueue.Value() == 0 {
		t.Fatal("expected central-queue drops under burst")
	}
	if r.sched.central.Len() > 16 {
		t.Fatalf("central queue exceeded cap: %d", r.sched.central.Len())
	}
	if r.pool.InUse() != 0 {
		t.Fatalf("buffers leaked on drop path: %d", r.pool.InUse())
	}
}

// TestDispatcherDrainsRxPastOneBatch: a burst larger than one RX poll
// batch (64 packets) arrives while every worker is busy. The dispatcher
// keeps polling until the RX ring is empty, so the whole burst waits in
// the central queue, not the RX ring, though no worker is free to take
// any of it.
func TestDispatcherDrainsRxPastOneBatch(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, cfg, phases{compute(sim.Micros(50))}, 64)
	r.inject(make([]int64, 200), 0)
	r.env.Run(sim.Micros(20)) // every worker still in its first request
	if got, want := r.sched.central.Len(), 200-cfg.Workers; got != want {
		t.Fatalf("central queue holds %d requests, want %d: the dispatcher left arrivals in the RX ring", got, want)
	}
}

func TestBlockYieldsUnderYieldPolicy(t *testing.T) {
	// Two requests contend on an app-level lock; under the yield policy
	// the lock waiter must release its worker (the Block contract).
	cfg := DefaultConfig()
	cfg.Workers = 1 // force both requests onto one worker
	var lockHeld bool
	var waiters []func()
	acquire := func(ctx workload.StepCtx, _ any) (sim.Time, workload.StepStatus) {
		if lockHeld {
			ctx.Block(func(wake func()) { waiters = append(waiters, wake) })
			return 0, workload.StepBlock
		}
		lockHeld = true
		return sim.Micros(10), workload.StepCompute
	}
	release := func(workload.StepCtx, any) (sim.Time, workload.StepStatus) {
		lockHeld = false
		if len(waiters) > 0 {
			w := waiters[0]
			waiters = waiters[1:]
			w()
		}
		return 0, workload.StepDone
	}
	r := newRig(t, cfg, phases{acquire, release}, 64)
	r.inject([]int64{1, 2, 3}, 10)
	r.env.Run(sim.Millis(10))
	if r.sched.Completed.Value() != 3 {
		t.Fatalf("completed = %d, want 3 (lock waiters must not wedge the worker)", r.sched.Completed.Value())
	}
}

func TestWorkStealingBalancesLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dispatch = WorkStealing
	ranOn := map[int]int{}
	r := newRig(t, cfg, phases{func(ctx workload.StepCtx, payload any) (sim.Time, workload.StepStatus) {
		ranOn[carrier(ctx).id]++
		if payload.(int64) == 1 {
			return sim.Micros(60), workload.StepCompute // heavy
		}
		return sim.Micros(1), workload.StepCompute
	}}, 64)
	// Round-robin sends request j to worker j%8: making every j%8==0
	// request heavy piles work onto worker 0, which peers must steal.
	payloads := make([]int64, 160)
	for i := range payloads {
		if i%8 == 0 {
			payloads[i] = 1
		}
	}
	r.inject(payloads, 200)
	r.env.Run(sim.Millis(20))
	if got := r.sched.Completed.Value(); got != 160 {
		t.Fatalf("completed = %d, want 160", got)
	}
	if r.sched.Steals.Value() == 0 {
		t.Fatal("no steals under a bursty round-robin assignment")
	}
	// Work must spread across all workers.
	if len(ranOn) < cfg.Workers {
		t.Fatalf("work ran on %d/%d workers", len(ranOn), cfg.Workers)
	}
}

func TestMultipleDispatchers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Dispatchers = 2
	cfg.Workers = 8
	r := newRig(t, cfg, nil, 64)
	if len(r.sched.dispatchers) != 2 {
		t.Fatalf("dispatchers = %d", len(r.sched.dispatchers))
	}
	if len(r.sched.dispatchers[0].workers) != 4 || len(r.sched.dispatchers[1].workers) != 4 {
		t.Fatal("workers not partitioned evenly")
	}
	payloads := make([]int64, 300)
	for i := range payloads {
		payloads[i] = int64(i % 256)
	}
	r.inject(payloads, sim.Micros(1))
	r.env.Run(sim.Millis(30))
	if got := r.sched.Completed.Value(); got != 300 {
		t.Fatalf("completed = %d, want 300", got)
	}
	if r.pool.InUse() != 0 {
		t.Fatalf("leaked %d buffers across dispatcher partitions", r.pool.InUse())
	}
}

func TestIPIPreemptionSlicesCompute(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Wait = BusyWait
	cfg.Tx = SyncTx
	cfg.Preempt = true
	cfg.PreemptIPI = true
	cfg.Quantum = sim.Micros(5)
	// One long Compute with NO probes: only IPI can preempt it.
	r := newRig(t, cfg, phases{compute(sim.Micros(25))}, 64)
	preemptions := 0
	r.sched.OnComplete = func(req *Request) { preemptions += req.Preemptions }
	payloads := make([]int64, 30)
	r.inject(payloads, sim.Micros(2))
	r.env.Run(sim.Millis(30))
	if r.sched.Completed.Value() != 30 {
		t.Fatalf("completed = %d", r.sched.Completed.Value())
	}
	if preemptions == 0 {
		t.Fatal("IPI preemption never fired on probe-free 25us compute")
	}
	// Each 25us task should be preempted ~4 times at a 5us quantum.
	if preemptions < 30*2 {
		t.Fatalf("preemptions = %d, want >= 60", preemptions)
	}
}
