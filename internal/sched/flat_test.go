package sched

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/unithread"
	"repro/internal/workload"
	"repro/internal/workload/steptest"
)

// arrayRig wires a scheduler around a real ArrayApp.
type arrayRig struct {
	env   *sim.Env
	net   *ethernet.Net
	mgr   *paging.Manager
	sched *Scheduler
	app   *workload.ArrayApp
	rec   *trace.Recorder
}

// rigSetup is one pinned configuration: the scheduler config plus the
// resource limits that decide which stall paths a run reaches.
type rigSetup struct {
	sched        Config
	frames       int64 // local frame pool, in pages
	qpDepth      int   // 0 = the NIC default
	onDemand     bool  // reclaimer runs only once allocations stall
	wantStalls   bool  // the run must stall on frames and on QP slots
	wantSteals   bool
	wantBusyWait bool // the core must spin: on a fault, or on its TX completion
	wantPreempts bool
	gap          sim.Time // request spacing (0 = 1 µs)
	wrErr        float64  // work-request error rate (demand fetches that exhaust their retries abort)
}

func newArrayRig(t *testing.T, ts rigSetup) *arrayRig {
	t.Helper()
	env := sim.NewEnv(5)
	pcfg := paging.DefaultConfig(ts.frames * paging.PageSize)
	pcfg.Proactive = !ts.onDemand
	r := &arrayRig{
		env: env,
		net: ethernet.New(env, ethernet.DefaultConfig()),
		mgr: paging.NewManager(env, pcfg),
		rec: trace.New(0),
	}
	rcfg := rdma.DefaultConfig()
	if ts.qpDepth > 0 {
		rcfg.QPDepth = ts.qpDepth
	}
	nic := rdma.NewNIC(env, rcfg)
	node := memnode.New(1 << 30)
	if ts.wrErr > 0 {
		nic.SetInterceptor(faults.NewForNode(faults.Config{WRErrRate: ts.wrErr}, node, 5, 0))
	}
	r.app = workload.NewArrayApp(r.mgr, node, 256*paging.PageSize)
	r.app.WriteFrac = 0.25
	r.sched = New(env, ts.sched, r.net, rdma.Fabric{nic}, r.mgr, unithread.NewPool(4096, 4096), r.app.StepHandler())
	r.sched.Trace = r.rec
	r.sched.Start()
	rcq := rdma.NewCQ("reclaim")
	r.mgr.StartReclaimer(nic.CreateQP("reclaim", rcq), rcq)
	return r
}

// drive sends n requests gap cycles apart — a deterministic mix,
// identical across runs: indices spread over all pages, every fourth
// request a write — and runs the rig for 30 ms.
func (r *arrayRig) drive(n int, gap sim.Time) {
	entries := int64(256 * paging.PageSize / 8)
	for i := 0; i < n; i++ {
		idx := (int64(i) * 7919) % entries
		var payload any = &workload.ArrayMsg{Index: idx, Put: i%4 == 1}
		id, p := uint64(i), payload
		r.env.At(1+sim.Time(i)*gap, func() {
			r.net.SendToNode(&ethernet.Packet{ID: id, Payload: p, Size: 64, TxTime: r.env.Now()})
		})
	}
	r.env.Run(sim.Millis(30))
}

// digest folds one completed request into an order-sensitive hash.
func digestReq(h *uint64, req *Request) {
	f := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		f.Write(b[:])
	}
	put(*h)
	put(req.Pkt.ID)
	put(uint64(req.Started))
	put(uint64(req.Finished))
	put(uint64(req.QueueWait))
	put(uint64(req.RDMAWait))
	put(uint64(req.BusyWait))
	put(uint64(req.CPU))
	put(uint64(req.Faults))
	put(uint64(req.Preemptions))
	if req.Failed {
		put(1)
	}
	*h = f.Sum64()
}

// flatRunStats is a run's summary, every counter of its pinned row.
type flatRunStats struct {
	digest    uint64
	completed int64
	cpu       int64
	busyWait  int64
	hits      int64
	faults    int64
	fetchWait int64
	evictions int64
	dirtyWB   int64
	allocWait int64
	steals    int64
	preempts  int
	slotWaits int // completions that saw a worker core waiting for a QP slot
}

// runForm runs the pinned workload and returns its summary and its pinned
// row: the summary and the SHA-256 of the trace.
func runForm(t *testing.T, ts rigSetup) (st flatRunStats, row string) {
	t.Helper()
	r := newArrayRig(t, ts)
	r.sched.OnComplete = func(req *Request) {
		digestReq(&st.digest, req)
		st.preempts += req.Preemptions
		for _, w := range r.sched.workers {
			if w.qps[0].SlotWaiting(w.task) {
				st.slotWaits++
			}
		}
	}

	gap := ts.gap
	if gap == 0 {
		gap = sim.Micros(1)
	}
	r.drive(600, gap)

	st.completed = r.sched.Completed.Value()
	st.cpu = r.sched.CPUCycles()
	st.busyWait = r.sched.BusyWaitCycles()
	st.hits = r.mgr.Hits.Value()
	st.faults = r.mgr.Faults.Value()
	st.fetchWait = r.mgr.FetchWaits.Value()
	st.evictions = r.mgr.Evictions.Value()
	st.dirtyWB = r.mgr.DirtyWritebacks.Value()
	st.allocWait = r.mgr.AllocStalls.Value()
	st.steals = r.sched.Steals.Value()
	if err := r.sched.CheckLiveness(); err != nil {
		t.Fatal(err)
	}
	if n := r.env.LiveProcs(); n != 0 {
		t.Fatalf("%d live procs", n)
	}
	if sw := r.env.KernelStats().Switches; sw != 0 {
		t.Fatalf("%d coroutine switches", sw)
	}
	return st, fmt.Sprintf("%+v trace=%s", st, steptest.TraceSum(r.rec.Events()))
}

// There is one execution path and one handler form, and each row of
// testdata/stepper_digests.txt is what ArrayApp's requests did on it
// under one policy the machine implements — recorded, and proven equal,
// on both forms a handler could take before the stackful one left: the
// native stepper, and the direct-style body on the coroutine adapter
// (hence the test's name). The stepper must reproduce every row:
// per-request timings (an order-sensitive digest), every scheduler and
// paging counter, the trace's SHA-256.
func TestBlockingMatchesNativeStepper(t *testing.T) {
	adios := DefaultConfig()

	syncTx := DefaultConfig() // Infiniswap-shaped: kernel costs, jitter, sync TX
	syncTx.Dispatch = RoundRobin
	syncTx.Tx = SyncTx
	syncTx.Costs.KernelNetExtra = 2600
	syncTx.Costs.KernelFaultExtra = 1800
	syncTx.Costs.JitterProb = 0.0025
	syncTx.Costs.JitterMean = 4000

	stealing := DefaultConfig()
	stealing.Dispatch = WorkStealing

	// The Fig 9 ablation shape: Adios with the TX wait back on the worker,
	// which itself waits on its TX gate.
	syncYield := DefaultConfig()
	syncYield.Tx = SyncTx

	stealing2 := stealing
	stealing2.Dispatchers = 2

	// The DiLOS preset: the core busy-waits on its fetch CQ and on its TX
	// completion.
	dilos := DefaultConfig()
	dilos.Wait, dilos.Dispatch, dilos.Tx = BusyWait, RoundRobin, SyncTx

	// DiLOS-P with a quantum short enough that the one probe of an array
	// request (556 cycles in) finds it spent.
	probes := dilos
	probes.Preempt, probes.Quantum = true, 500

	// Shinjuku-style: the parse charge is cut at the quantum's end.
	ipi := probes
	ipi.PreemptIPI, ipi.Quantum = true, 450

	// Hermit: kernel extras on the fault and network paths, and jitter
	// often enough that the draws interleave with everything else.
	hermit := dilos
	hermit.Costs.KernelFaultExtra = 1500
	hermit.Costs.KernelNetExtra = 1200
	hermit.Costs.JitterProb = 0.05
	hermit.Costs.JitterMean = sim.Micros(2)

	for _, tc := range []struct {
		name string
		ts   rigSetup
	}{
		{"adios", rigSetup{sched: adios, frames: 48}},
		{"synctx-jitter", rigSetup{sched: syncTx, frames: 48, wantBusyWait: true}},
		{"stealing", rigSetup{sched: stealing, frames: 48}},
		// Paths no benchmark workload reaches: faults that stall for a
		// frame (the reclaimer only runs once the pool is empty) and for a
		// QP slot. (Pushed harder — 16 frames and arrivals 200 cycles apart
		// — the model deadlocks: every frame is pinned by a fetch whose
		// completion sits in the CQ of a worker that is itself stalled
		// waiting for a frame.)
		{"starved", rigSetup{sched: adios, frames: 24, qpDepth: 2, onDemand: true, wantStalls: true, gap: 500}},
		{"synctx-yield", rigSetup{sched: syncYield, frames: 48, wantBusyWait: true}},
		// Arrivals fast enough that inboxes back up and peers steal.
		{"stealing-2-dispatchers", rigSetup{sched: stealing2, frames: 48, wantSteals: true, gap: 850}},
		{"dilos", rigSetup{sched: dilos, frames: 48, wantBusyWait: true}},
		{"probe-preemption", rigSetup{sched: probes, frames: 48, wantBusyWait: true, wantPreempts: true}},
		{"ipi-preemption", rigSetup{sched: ipi, frames: 48, wantBusyWait: true, wantPreempts: true}},
		{"hermit", rigSetup{sched: hermit, frames: 48, wantBusyWait: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, row := runForm(t, tc.ts)
			if st.completed != 600 {
				t.Fatalf("completed %d of 600", st.completed)
			}
			if st.faults == 0 || st.evictions == 0 || st.dirtyWB == 0 {
				t.Fatalf("workload too tame to mean anything: %+v", st)
			}
			if tc.ts.wantStalls && (st.allocWait == 0 || st.slotWaits == 0) {
				t.Fatalf("no stalls: %d frame stalls, %d slot waits seen", st.allocWait, st.slotWaits)
			}
			if tc.ts.wantSteals && st.steals == 0 {
				t.Fatal("stealing configuration never stole")
			}
			if tc.ts.wantBusyWait != (st.busyWait > 0) {
				t.Fatalf("busy-wait cycles = %d", st.busyWait)
			}
			if tc.ts.wantPreempts != (st.preempts > 0) {
				t.Fatalf("preemptions = %d", st.preempts)
			}
			steptest.Pinned(t, tc.name, row)
		})
	}
}

// The unithread is one record with two owners — the worker, until the
// request's last segment closes, and the TX completion, until it is
// reaped — and whichever lets go last recycles it, once. With aborted,
// preempted and parked requests in the mix and an OnComplete tap reading
// the packet, every record ever built is back on the free list after the
// drain, exactly once; there are as many as were ever in flight, not as
// many as completed; and the pool's occupancy reads what it read when a
// request was three records (the pinned peaks were recorded then). 96
// frames: at 48 this load wedges in the frame-starvation deadlock the
// "starved" pinned row describes.
func TestRequestRecycledOnceByLastOwner(t *testing.T) {
	for _, tc := range []struct {
		tx       TxPolicy
		wantPeak int
	}{{DelegatedTx, 417}, {SyncTx, 396}} {
		cfg := DefaultConfig()
		cfg.Tx, cfg.Preempt, cfg.Quantum = tc.tx, true, 500
		r := newArrayRig(t, rigSetup{sched: cfg, frames: 96, wrErr: 0.3})
		var preempts, ids int
		r.sched.OnComplete = func(req *Request) {
			preempts += req.Preemptions
			ids += int(req.Pkt.ID)
		}
		const n = 600
		r.drive(n, sim.Micros(1))
		s := r.sched
		if got := s.Completed.Value(); got != n || ids != n*(n-1)/2 {
			t.Fatalf("tx=%v: completed %d of %d (packet ids sum to %d)", tc.tx, got, n, ids)
		}
		if s.FaultAborts.Value() == 0 || preempts == 0 || r.mgr.Faults.Value() == 0 {
			t.Fatalf("tx=%v: %d aborts, %d preemptions, %d faults: an owner path went unexercised",
				tc.tx, s.FaultAborts.Value(), preempts, r.mgr.Faults.Value())
		}
		onFree := map[*Request]bool{}
		for _, req := range s.freeReqs {
			if onFree[req] {
				t.Fatalf("tx=%v: a record is on the free list twice", tc.tx)
			}
			onFree[req] = true
		}
		for _, req := range s.reqs {
			if !onFree[req] || req.Pkt != nil || req.slot {
				t.Fatalf("tx=%v: a record did not come back after the drain: %+v", tc.tx, req)
			}
		}
		pool := s.pool
		if built := len(s.reqs); built < pool.Peak() || built > pool.Peak()+cfg.Workers {
			t.Fatalf("tx=%v: %d records built for a peak of %d in flight (%d completed)", tc.tx, built, pool.Peak(), n)
		}
		if pool.InUse() != 0 || pool.Peak() != tc.wantPeak {
			t.Fatalf("tx=%v: pool in use %d (want 0), peak %d (want %d)", tc.tx, pool.InUse(), pool.Peak(), tc.wantPeak)
		}
		if err := s.CheckLiveness(); err != nil {
			t.Fatal(err)
		}
	}
}
