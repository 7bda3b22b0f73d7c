package sched

import (
	"runtime"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/unithread"
	"repro/internal/workload"
)

// The round-trip benchmark drives requests through the full path —
// arrival, dispatch, spawn, guaranteed demand faults, resume, reply,
// retire — keeping rtInflight requests in flight so the worker runs
// segments back to back as it does under load. The working set cycles
// over many more pages than the frame pool, so every access faults.
// Payloads, responses, and packets are preallocated and rotated: the
// measured loop exercises only the scheduler's own steady-state
// machinery, which must run without allocating at all (the guard below).

// rtPayload is the benchmark request: one paged offset, mutated in
// place between round trips (the boxes are allocated once).
type rtPayload struct{ off int64 }

const (
	rtLocalPages = 256
	rtSpanPages  = 4096
	rtWarmOps    = 2048
	rtInflight   = 16 // concurrently outstanding requests (closed loop)
	rtRefill     = 8  // completions per batched refill (amortizes RX wakes)
	rtFaults     = 8  // paged accesses per request, each a guaranteed miss
	rtStride     = 797 * paging.PageSize
	rtSpanBytes  = rtSpanPages * paging.PageSize
)

// rtStepApp is a minimal app: parse, paged loads, reply. The response is
// a preallocated boxed value shared across requests.
type rtStepApp struct {
	space *paging.Space
	resp  any
}

type rtStep struct{ a *rtStepApp }

func (rtStep) Begin(f *workload.StepFrame, payload any) { f.PC = 0 }
func (rtStep) Abort(*workload.StepFrame, error)         {}

func (s rtStep) Step(ctx workload.StepCtx, f *workload.StepFrame, payload any) (any, int, sim.Time, workload.StepStatus) {
	switch f.PC {
	case 0:
		f.PC = 1
		return nil, 0, 250, workload.StepCompute
	case 1:
		f.PC, f.W[0] = 2, 0
		return nil, 0, 0, workload.StepProbe
	case 2:
		base := payload.(*rtPayload).off
		var p workload.Page
		for j := int64(f.W[0]); j < rtFaults; j++ {
			f.W[0] = uint64(j)
			if !p.Open(ctx, s.a.space, (base+j*rtStride)%rtSpanBytes) {
				return nil, 0, 0, workload.StepFault
			}
		}
		f.PC = 3
		return nil, 0, 450, workload.StepCompute
	default:
		return s.a.resp, 64, 0, workload.StepDone
	}
}

// rtRig is the benchmark harness: a one-worker scheduler fed by a
// self-clocked closed loop — each completion injects the next request
// from inside the completion hook, so no driver process sits in the
// measured path.
type rtRig struct {
	env      *sim.Env
	net      *ethernet.Net
	sched    *Scheduler
	payloads [rtInflight]*rtPayload
	boxed    [rtInflight]any
	pkts     [4 * rtInflight]*ethernet.Packet
	sent     int
}

func newRTRig(cfg Config) *rtRig {
	env := sim.NewEnv(5)
	// Fast fabric: with wire serialization and flight shrunk, fetch
	// completions and arrivals cluster at the same instants, so each
	// worker/dispatcher wake drains a batch — the sustained-load shape
	// where execution-tier cost, not the network, is what differs.
	ncfg := ethernet.DefaultConfig()
	ncfg.CyclesPerByte = 0.01
	ncfg.Flight = sim.Micros(0.1)
	ncfg.TxCompletionLatency = sim.Micros(0.3)
	rcfg := rdma.DefaultConfig()
	rcfg.CyclesPerByte = 0.01
	rcfg.ReqFlight = sim.Micros(0.1)
	rcfg.RespFlight = sim.Micros(0.1)
	r := &rtRig{
		env: env,
		net: ethernet.New(env, ncfg),
	}
	for i := range r.payloads {
		r.payloads[i] = &rtPayload{}
		r.boxed[i] = r.payloads[i]
	}
	nic := rdma.NewNIC(env, rcfg)
	mgr := paging.NewManager(env, paging.DefaultConfig(rtLocalPages*paging.PageSize))
	node := memnode.New(1 << 30)
	app := &rtStepApp{
		space: mgr.NewSpace("rt", node.MustAlloc("rt", rtSpanPages*paging.PageSize)),
		resp:  any(uint64(1)),
	}
	cfg.Workers, cfg.Dispatchers = 1, 1
	r.sched = New(env, cfg, r.net, rdma.Fabric{nic}, mgr, unithread.NewPool(64), rtStep{app})
	r.sched.Start()
	rcq := rdma.NewCQ("reclaim")
	mgr.StartReclaimer(nic.CreateQP("reclaim", rcq), rcq)
	for i := range r.pkts {
		r.pkts[i] = &ethernet.Packet{}
	}
	return r
}

// inject sends the next request, rotating the packet pool and mutating
// a payload box in place. Callable from any event context (including
// the completion hook), so the closed loop never crosses a process
// boundary to refill itself.
func (r *rtRig) inject() {
	pkt := r.pkts[r.sent%len(r.pkts)]
	pl := r.payloads[r.sent%len(r.payloads)]
	pl.off = int64(r.sent%rtSpanPages) * paging.PageSize
	pkt.ID = uint64(r.sent)
	pkt.Payload = pl
	pkt.Size = 64
	pkt.TxTime = r.env.Now()
	r.sent++
	r.net.SendToNode(pkt)
}

func BenchmarkSchedRequestRoundTrip(b *testing.B) {
	r := newRTRig(DefaultConfig())
	total := rtWarmOps + b.N
	completed := 0
	r.sched.OnComplete = func(*Request) {
		completed++
		if completed == rtWarmOps {
			b.ResetTimer()
		}
		if completed%rtRefill == 0 {
			for i := 0; i < rtRefill && r.sent < total; i++ {
				r.inject()
			}
		}
	}
	r.env.At(1, func() {
		for i := 0; i < rtInflight; i++ {
			r.inject()
		}
	})
	r.env.RunAll()
	b.StopTimer()
	if got := r.sched.Completed.Value(); got != int64(total) {
		b.Fatalf("completed %d of %d round trips", got, total)
	}
}

// The zero-allocation contract: a full request round trip — admission,
// spawn, fault, park or spin, resume, reply, retire — allocates nothing
// once pools are warm, whichever way the fault waits.
func TestFlatRoundTripZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dilos := DefaultConfig()
	dilos.Wait, dilos.Dispatch, dilos.Tx = BusyWait, RoundRobin, SyncTx
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"yield", DefaultConfig()},
		{"busywait", dilos},
	} {
		r := newRTRig(tc.cfg)
		done := sim.NewGate(r.env)
		r.sched.OnComplete = func(*Request) { done.Wake() }
		// The client runs round trips back to back: warm-up, one more
		// (testing.AllocsPerRun's own warm-up call), then the measured
		// runs, counted as AllocsPerRun counts them.
		const runs = 200
		var got float64
		var mallocs uint64
		completed := 0
		var client *sim.Task
		client = sim.NewTask(r.env, "client", func() {
			for {
				switch completed {
				case rtWarmOps + 1:
					mallocs = totalMallocs()
				case rtWarmOps + 1 + runs:
					got = float64((totalMallocs() - mallocs) / runs)
					return
				}
				r.inject()
				if completed++; !done.Arm(client) {
					return
				}
			}
		})
		client.FireAt(r.env.Now())
		r.env.RunAll()
		if got != 0 {
			t.Errorf("%s: round trip allocates %v per op, want 0", tc.name, got)
		}
	}
}

// totalMallocs is the process's cumulative heap allocation count.
func totalMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
