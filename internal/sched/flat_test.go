package sched

import (
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/unithread"
	"repro/internal/workload"
)

// arrayRig wires a scheduler around a real ArrayApp so the flat tier
// (step handler) and the goroutine tier (plain handler) can be run on
// identical inputs.
type arrayRig struct {
	env   *sim.Env
	net   *ethernet.Net
	mgr   *paging.Manager
	sched *Scheduler
	app   *workload.ArrayApp
	rec   *trace.Recorder
}

// tierSetup is one differential configuration: the scheduler config plus
// the resource limits that decide which stall paths a run reaches.
type tierSetup struct {
	sched      Config
	frames     int64 // local frame pool, in pages
	qpDepth    int   // 0 = the NIC default
	onDemand   bool  // reclaimer runs only once allocations stall
	wantStalls bool  // the run must stall on frames and on QP slots
	wantSteals bool
	gap        sim.Time // request spacing (0 = 1 µs)
}

func newArrayRig(t *testing.T, ts tierSetup, flatTier bool) *arrayRig {
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
	r.app = workload.NewArrayApp(r.mgr, node, 256*paging.PageSize)
	r.app.WriteFrac = 0.25
	r.sched = New(env, ts.sched, r.net, rdma.Fabric{nic}, r.mgr, unithread.NewPool(4096, 4096), r.app.Handler())
	if flatTier {
		r.sched.SetStepHandler(r.app.StepHandler())
		if !r.sched.FlatTier() {
			t.Fatalf("config %+v did not qualify for the flat tier", ts.sched)
		}
	}
	r.sched.Trace = r.rec
	r.sched.Start()
	rcq := rdma.NewCQ("reclaim")
	r.mgr.StartReclaimer(nic.CreateQP("reclaim", rcq), rcq)
	return r
}

// drive sends n requests gap cycles apart — a deterministic mix,
// identical across tiers: indices spread over all pages, every fourth
// request a write — and runs the rig for 30 ms.
func (r *arrayRig) drive(n int, gap sim.Time) {
	entries := int64(256 * paging.PageSize / 8)
	for i := 0; i < n; i++ {
		idx := (int64(i) * 7919) % entries
		var payload any = workload.ArrayGet{Index: idx}
		if i%4 == 1 {
			payload = workload.ArrayPut{Index: idx}
		}
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
	if req.Failed {
		put(1)
	}
	*h = f.Sum64()
}

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
	events    []trace.Event
}

// runTier runs the differential workload on one tier. slotWaits counts,
// over the completions, the worker cores seen waiting for a QP slot (the
// flat tier's stalled TryRequestPage; the goroutine tier stalls its
// unithreads' processes instead, which this cannot see).
func runTier(t *testing.T, ts tierSetup, flatTier bool) (st flatRunStats, slotWaits int) {
	t.Helper()
	r := newArrayRig(t, ts, flatTier)
	r.sched.OnComplete = func(req *Request) {
		digestReq(&st.digest, req)
		for _, w := range r.sched.workers {
			if w.qps[0].SlotWaiting(w.task) {
				slotWaits++
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
	st.events = r.rec.Events()
	if err := r.sched.CheckLiveness(); err != nil {
		t.Fatal(err)
	}
	return st, slotWaits
}

// The differential determinism test of the flat tier: the same workload
// on the goroutine reference and on the flat tier must produce the
// identical schedule — per-request timings (order-sensitive digest),
// every scheduler and paging counter, and the full trace event sequence.
func TestFlatTierMatchesGoroutineTier(t *testing.T) {
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

	for _, tc := range []struct {
		name string
		ts   tierSetup
	}{
		{"adios", tierSetup{sched: adios, frames: 48}},
		{"synctx-jitter", tierSetup{sched: syncTx, frames: 48}},
		{"stealing", tierSetup{sched: stealing, frames: 48}},
		// Paths no benchmark workload reaches: faults that stall for a
		// frame (the reclaimer only runs once the pool is empty) and for a
		// QP slot. (Pushed harder — 16 frames and arrivals 200 cycles apart
		// — the model deadlocks, on both tiers and at the parent commit
		// alike: every frame is pinned by a fetch whose completion sits in
		// the CQ of a worker that is itself stalled waiting for a frame.)
		{"starved", tierSetup{sched: adios, frames: 24, qpDepth: 2, onDemand: true, wantStalls: true, gap: 500}},
		{"synctx-yield", tierSetup{sched: syncYield, frames: 48}},
		// Arrivals fast enough that inboxes back up and peers steal.
		{"stealing-2-dispatchers", tierSetup{sched: stealing2, frames: 48, wantSteals: true, gap: 850}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, _ := runTier(t, tc.ts, false)
			flat, slotWaits := runTier(t, tc.ts, true)
			if ref.completed != 600 {
				t.Fatalf("reference completed %d of 600", ref.completed)
			}
			if ref.faults == 0 || ref.evictions == 0 || ref.dirtyWB == 0 {
				t.Fatalf("workload too tame to differentiate tiers: %+v", ref)
			}
			if tc.ts.wantStalls && (ref.allocWait == 0 || slotWaits == 0) {
				t.Fatalf("no stalls to compare: %d frame stalls, %d slot waits seen", ref.allocWait, slotWaits)
			}
			if tc.ts.wantSteals && ref.steals == 0 {
				t.Fatal("stealing configuration never stole")
			}
			flatEvents, refEvents := flat.events, ref.events
			flat.events, ref.events = nil, nil
			if !reflect.DeepEqual(flat, ref) {
				t.Fatalf("flat tier diverged:\n flat %+v\n  ref %+v", flat, ref)
			}
			if !reflect.DeepEqual(flatEvents, refEvents) {
				for i := range refEvents {
					if i >= len(flatEvents) || flatEvents[i] != refEvents[i] {
						t.Fatalf("trace diverged at event %d:\n flat %+v\n  ref %+v",
							i, flatEvents[i], refEvents[i])
					}
				}
				t.Fatalf("trace lengths differ: flat %d, ref %d", len(flatEvents), len(refEvents))
			}
		})
	}
}

// Non-qualifying configurations must decline the flat tier even when a
// step handler is offered.
func TestFlatTierEligibility(t *testing.T) {
	env := sim.NewEnv(1)
	mk := func(cfg Config) *Scheduler {
		net := ethernet.New(env, ethernet.DefaultConfig())
		nic := rdma.NewNIC(env, rdma.DefaultConfig())
		mgr := paging.NewManager(env, paging.DefaultConfig(16*paging.PageSize))
		node := memnode.New(1 << 24)
		app := workload.NewArrayApp(mgr, node, 4*paging.PageSize)
		s := New(env, cfg, net, rdma.Fabric{nic}, mgr, unithread.NewPool(64, 4096), app.Handler())
		s.SetStepHandler(app.StepHandler())
		return s
	}
	busy := DefaultConfig()
	busy.Wait = BusyWait
	if mk(busy).FlatTier() {
		t.Fatal("busy-wait config must keep the goroutine tier")
	}
	preempt := DefaultConfig()
	preempt.Preempt = true
	if mk(preempt).FlatTier() {
		t.Fatal("preemptive config must keep the goroutine tier")
	}
	if !mk(DefaultConfig()).FlatTier() {
		t.Fatal("yield non-preemptive config must take the flat tier")
	}
}
