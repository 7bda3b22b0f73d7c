package workload_test

import (
	"reflect"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/unithread"
	"repro/internal/workload"
)

// roundTripSetup is one configuration of sched.TestBlockingMatchesNativeStepper:
// the scheduler config plus the resource limits that decide which stall
// paths a run reaches.
type roundTripSetup struct {
	name     string
	sched    sched.Config
	frames   int64 // local frame pool, in pages
	qpDepth  int   // 0 = the NIC default
	onDemand bool  // reclaimer runs only once allocations stall
	gap      sim.Time
}

// roundTripSetups are the ten configurations of sched/flat_test.go.
func roundTripSetups() []roundTripSetup {
	adios := sched.DefaultConfig()
	syncTx := sched.DefaultConfig()
	syncTx.Dispatch, syncTx.Tx = sched.RoundRobin, sched.SyncTx
	syncTx.Costs.KernelNetExtra, syncTx.Costs.KernelFaultExtra = 2600, 1800
	syncTx.Costs.JitterProb, syncTx.Costs.JitterMean = 0.0025, 4000
	stealing := sched.DefaultConfig()
	stealing.Dispatch = sched.WorkStealing
	syncYield := sched.DefaultConfig()
	syncYield.Tx = sched.SyncTx
	stealing2 := stealing
	stealing2.Dispatchers = 2
	dilos := sched.DefaultConfig()
	dilos.Wait, dilos.Dispatch, dilos.Tx = sched.BusyWait, sched.RoundRobin, sched.SyncTx
	probes := dilos
	probes.Preempt, probes.Quantum = true, 500
	ipi := probes
	ipi.PreemptIPI, ipi.Quantum = true, 450
	hermit := dilos
	hermit.Costs.KernelFaultExtra, hermit.Costs.KernelNetExtra = 1500, 1200
	hermit.Costs.JitterProb, hermit.Costs.JitterMean = 0.05, sim.Micros(2)
	return []roundTripSetup{
		{name: "adios", sched: adios, frames: 48},
		{name: "synctx-jitter", sched: syncTx, frames: 48},
		{name: "stealing", sched: stealing, frames: 48},
		{name: "starved", sched: adios, frames: 24, qpDepth: 2, onDemand: true, gap: 500},
		{name: "synctx-yield", sched: syncYield, frames: 48},
		{name: "stealing-2-dispatchers", sched: stealing2, frames: 48, gap: 850},
		{name: "dilos", sched: dilos, frames: 48},
		{name: "probe-preemption", sched: probes, frames: 48},
		{name: "ipi-preemption", sched: ipi, frames: 48},
		{name: "hermit", sched: hermit, frames: 48},
	}
}

// roundTripStats is everything the two runs must agree on.
type roundTripStats struct {
	completed, cpu, busyWait, steals  int64
	hits, faults, evictions, dirtyWB  int64
	fetchWaits, allocStalls, preempts int64
	mismatches                        int64
	timings                           []sim.Time // five per request, in completion order
	events                            []trace.Event
	switches                          int64
}

// runRoundTrip drives the array stepper — as it is, or wrapped in Direct
// and put back on the step contract by Blocking — with the deterministic
// mix of sched/flat_test.go: 600 requests over all pages, every fourth a
// write.
func runRoundTrip(t *testing.T, ts roundTripSetup, wrapped bool) roundTripStats {
	t.Helper()
	env := sim.NewEnv(5)
	pcfg := paging.DefaultConfig(ts.frames * paging.PageSize)
	pcfg.Proactive = !ts.onDemand
	mgr := paging.NewManager(env, pcfg)
	net := ethernet.New(env, ethernet.DefaultConfig())
	rcfg := rdma.DefaultConfig()
	if ts.qpDepth > 0 {
		rcfg.QPDepth = ts.qpDepth
	}
	nic := rdma.NewNIC(env, rcfg)
	app := workload.NewArrayApp(mgr, memnode.New(1<<30), 256*paging.PageSize)
	stepH := app.StepHandler()
	if wrapped {
		stepH = workload.NewBlocking(env, workload.Direct(stepH))
	}
	s := sched.New(env, ts.sched, net, rdma.Fabric{nic}, mgr, unithread.NewPool(4096, 4096), stepH)
	if s.FlatTier() == wrapped {
		t.Fatalf("FlatTier() = %v with wrapped = %v", s.FlatTier(), wrapped)
	}
	rec := trace.New(0)
	s.Trace = rec
	s.Start()
	rcq := rdma.NewCQ("reclaim")
	mgr.StartReclaimer(nic.CreateQP("reclaim", rcq), rcq)

	var st roundTripStats
	s.OnComplete = func(req *sched.Request) {
		st.timings = append(st.timings, req.Started, req.Finished, req.CPU, req.RDMAWait, req.QueueWait)
		st.preempts += int64(req.Preemptions)
	}
	gap := ts.gap
	if gap == 0 {
		gap = sim.Micros(1)
	}
	entries := int64(256 * paging.PageSize / 8)
	for i := 0; i < 600; i++ {
		pkt := &ethernet.Packet{ID: uint64(i), Size: 64,
			Payload: &workload.ArrayMsg{Index: (int64(i) * 7919) % entries, Put: i%4 == 1}}
		env.At(1+sim.Time(i)*gap, func() {
			pkt.TxTime = env.Now()
			net.SendToNode(pkt)
		})
	}
	env.Run(sim.Millis(30))

	st.completed, st.cpu, st.busyWait, st.steals = s.Completed.Value(), s.CPUCycles(), s.BusyWaitCycles(), s.Steals.Value()
	st.hits, st.faults = mgr.Hits.Value(), mgr.Faults.Value()
	st.evictions, st.dirtyWB = mgr.Evictions.Value(), mgr.DirtyWritebacks.Value()
	st.fetchWaits, st.allocStalls = mgr.FetchWaits.Value(), mgr.AllocStalls.Value()
	st.mismatches = app.Mismatches.Value()
	st.events = rec.Events()
	st.switches = env.KernelStats().Switches
	if err := s.CheckLiveness(); err != nil {
		t.Fatal(err)
	}
	return st
}

// Direct is Blocking's mirror image, so the two compose to the identity on
// the simulated clock: the array stepper wrapped in Direct and put back on
// the step contract by Blocking must replay the bare stepper's run —
// per-request timings, every scheduler and paging counter, the full trace
// — under each of the ten configurations the scheduler's own form
// differential uses. That includes the retry-flagged re-probe after a
// fault (Hits would differ) and the write path through DirtyPage.
func TestDirectRoundTrip(t *testing.T) {
	for _, ts := range roundTripSetups() {
		t.Run(ts.name, func(t *testing.T) {
			bare := runRoundTrip(t, ts, false)
			wrapped := runRoundTrip(t, ts, true)
			if bare.completed != 600 || bare.faults == 0 || bare.evictions == 0 || bare.dirtyWB == 0 || bare.mismatches != 0 {
				t.Fatalf("workload too tame, or wrong: %+v", bare)
			}
			if bare.switches != 0 || wrapped.switches < 600 {
				t.Fatalf("coroutine switches: bare %d (want 0), wrapped %d (want one per request at least)",
					bare.switches, wrapped.switches)
			}
			bare.switches, wrapped.switches = 0, 0
			bareEvents, wrappedEvents := bare.events, wrapped.events
			bare.events, wrapped.events = nil, nil
			if !reflect.DeepEqual(bare, wrapped) {
				t.Fatalf("Blocking(Direct(stepper)) diverged from the stepper:\n bare    %+v\n wrapped %+v", bare, wrapped)
			}
			if !reflect.DeepEqual(bareEvents, wrappedEvents) {
				t.Fatalf("traces differ: %d events bare, %d wrapped", len(bareEvents), len(wrappedEvents))
			}
		})
	}
}
