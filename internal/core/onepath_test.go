package core

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tpcc"
	"repro/internal/trace"
	"repro/internal/workload"
)

// These tests hold the properties of the one request-execution path that
// need an assembled system: the two forms a handler can take stay
// indistinguishable on the simulated clock when fetches are abandoned,
// no run has a sim.Proc, and the coroutine under a direct-style handler
// neither outlives a run nor is reused with a dead request's stack on it.

// formDiffStats is everything the two forms must agree on.
type formDiffStats struct {
	digest    uint64
	completed int64
	aborts    int64
	faults    int64
	retries   int64
	cpu       int64
	p99us     float64
	events    []trace.Event
}

func runFormDiffOnce(t *testing.T, native bool) formDiffStats {
	t.Helper()
	const arrayBytes = 4 << 20
	cfg := Preset(Adios, arrayBytes/5)
	cfg.Seed = 11
	// Half of all wire posts fail: demand fetches retry up to the
	// attempt budget and a measurable fraction abort — the simulated
	// SIGBUS, which ends a native request in the machine and unwinds a
	// direct-style handler's stack.
	plan, err := faults.ParseSpec("wr=0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	sys := NewSystem(cfg)
	app := workload.NewArrayApp(sys.Mgr, sys.Node, arrayBytes)
	app.WarmCache()
	if native {
		sys.StartApp(app)
	} else {
		sys.Start(app.Handler())
	}
	if sys.Sched.FlatTier() != native {
		t.Fatalf("FlatTier() = %v with native = %v", sys.Sched.FlatTier(), native)
	}
	rec := trace.New(0)
	sys.Sched.Trace = rec

	var st formDiffStats
	sys.Sched.OnComplete = func(req *sched.Request) {
		f := fnv.New64a()
		var b [8]byte
		put := func(v uint64) {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			f.Write(b[:])
		}
		put(st.digest)
		put(req.Pkt.ID)
		put(uint64(req.Started))
		put(uint64(req.Finished))
		put(uint64(req.RDMAWait))
		put(uint64(req.CPU))
		put(uint64(req.Faults))
		if req.Failed {
			put(1)
		}
		st.digest = f.Sum64()
	}

	res := sys.Run(app, 400_000, sim.Millis(1), sim.Millis(6))
	st.completed = res.Completed
	st.aborts = res.Aborts
	st.faults = res.Faults
	st.retries = res.Retries
	st.cpu = sys.Sched.CPUCycles()
	st.p99us = res.P99us
	st.events = rec.Events()
	return st
}

// The abort-path half of the form differential (the rest is
// sched.TestBlockingMatchesNativeStepper): under heavy wire-error
// injection ArrayApp's Handler on workload.Blocking must reproduce its
// native stepper's run exactly — the fetch-abort handling, per-request
// digests, and the full scheduler trace.
func TestBlockingMatchesNativeWithAborts(t *testing.T) {
	ref := runFormDiffOnce(t, false)
	native := runFormDiffOnce(t, true)
	if ref.aborts == 0 {
		t.Fatalf("fault plan produced no aborts; differential does not cover the abort path: %+v", ref)
	}
	refEvents, nativeEvents := ref.events, native.events
	ref.events, native.events = nil, nil
	if !reflect.DeepEqual(native, ref) {
		t.Fatalf("forms diverged under fault injection:\n native   %+v\n blocking %+v", native, ref)
	}
	if !reflect.DeepEqual(nativeEvents, refEvents) {
		for i := range refEvents {
			if i >= len(nativeEvents) || nativeEvents[i] != refEvents[i] {
				t.Fatalf("trace diverged at event %d:\n native   %+v\n blocking %+v",
					i, nativeEvents[i], refEvents[i])
			}
		}
		t.Fatalf("trace lengths differ: native %d, blocking %d", len(nativeEvents), len(refEvents))
	}
}

// buildTPCC assembles a small TPC-C system at 20 % local memory, on the
// native stepper or — direct-style, the stepper under workload.Direct —
// on the coroutine adapter.
func buildTPCC(mode Mode, native bool) (*System, *tpcc.DB) {
	cfg := tpcc.DefaultConfig(1)
	cfg.CustomersPerDistrict = 300
	cfg.ItemCount = 5000
	cfg.InitialOrders = 300
	cfg.OrderCapacity = 2000
	probe := NewSystem(Preset(Adios, 1<<22))
	size := tpcc.New(probe.Env, probe.Mgr, probe.Node, cfg).TotalBytes()
	sys := NewSystem(Preset(mode, size/5))
	db := tpcc.New(sys.Env, sys.Mgr, sys.Mem, cfg)
	db.WarmCache()
	if native {
		sys.StartApp(db)
	} else {
		sys.Start(db.Handler())
	}
	return sys, db
}

// No sim.Proc exists in any assembled system's run, whatever the mode
// and whichever form the app's handler has: nothing parks, TPC-C — locks,
// Block waits, B-tree descents and all — runs as native steps, and a
// direct-style handler runs on coroutines its worker cores resume, which
// are not processes.
func TestNoProcInAnySystemRun(t *testing.T) {
	check := func(name string, sys *System, app workload.App, rps float64, wantSwitches bool) {
		t.Helper()
		sys.Sched.OnComplete = func(*sched.Request) {
			if n := sys.Env.LiveProcs(); n != 0 {
				t.Fatalf("%s: %d live procs", name, n)
			}
		}
		res := sys.Run(app, rps, sim.Millis(1), sim.Millis(4))
		ks := sys.Env.KernelStats()
		if res.Completed == 0 || ks.Parks != 0 || wantSwitches != (ks.Switches > 0) {
			t.Fatalf("%s: completed %d, parked %d times, switched %d times (FlatTier %v)",
				name, res.Completed, ks.Parks, ks.Switches, sys.Sched.FlatTier())
		}
	}
	for _, mode := range []Mode{Adios, DiLOS, DiLOSP, Hermit} {
		sys, app := buildMicro(mode, testArray, 0.20, 1)
		check("micro/"+mode.String(), sys, app, 500_000, false)
	}
	for _, mode := range []Mode{Adios, DiLOSP} {
		for _, native := range []bool{true, false} {
			sys, db := buildTPCC(mode, native)
			check(fmt.Sprintf("tpcc/%v/native=%v", mode, native), sys, db, 100_000, !native)
		}
	}
}

// settledGoroutines counts goroutines once the count holds still (a
// coroutine that was just stopped reports to its parent before it exits).
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
}

// A run cut by its horizon with requests suspended mid-handler — TPC-C
// direct-style at 200 KRPS, transactions parked on faults and district
// locks — leaves no goroutine behind: the environment's teardown unwinds
// every suspended handler and stops the pool.
func TestHorizonCutLeavesNoGoroutine(t *testing.T) {
	before := settledGoroutines()
	sys, db := buildTPCC(Adios, false)
	horizon := sim.Millis(3)
	loadgen.Start(sys.Env, sys.Net, db, 200_000, 0, 2*horizon)
	mid := 0
	sys.Env.At(horizon, func() { mid = runtime.NumGoroutine() })
	sys.Env.Run(horizon)
	if sys.Sched.Completed.Value() == 0 {
		t.Fatal("no transaction completed before the horizon")
	}
	if mid <= before+1 {
		t.Fatalf("%d goroutines at the horizon, %d before: no handler was suspended mid-request", mid, before)
	}
	if after := settledGoroutines(); after != before {
		t.Fatalf("goroutines: %d before, %d after a run cut mid-handler (%d at the cut)", before, after, mid)
	}
}

// tracked wraps a request payload so a completion can ask whether the
// request's handler is still on a stack.
type tracked struct {
	inner     any
	inHandler bool
}

// trackedArray is ArrayApp generating tracked payloads.
type trackedArray struct{ *workload.ArrayApp }

func (a trackedArray) NextRequest(rng *sim.RNG, _ any) (any, int) {
	p, n := a.ArrayApp.NextRequest(rng, nil)
	return &tracked{inner: p}, n
}

// An abandoned fetch unwinds the handler's stack — its deferred
// functions run — before the request completes and its coroutine goes
// back to the pool, and the request is answered with the 64-byte abort
// response.
func TestAbandonedFetchUnwindsHandler(t *testing.T) {
	const arrayBytes = 4 << 20
	cfg := Preset(Adios, arrayBytes/5)
	cfg.Seed = 11
	plan, err := faults.ParseSpec("wr=0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	sys := NewSystem(cfg)
	app := trackedArray{workload.NewArrayApp(sys.Mgr, sys.Node, arrayBytes)}
	app.WarmCache()
	inner := app.Handler()
	sys.Start(func(ctx workload.Ctx, payload any) (any, int) {
		tr := payload.(*tracked)
		tr.inHandler = true
		defer func() { tr.inHandler = false }()
		return inner(ctx, tr.inner)
	})
	byID := map[uint64]*tracked{}
	sys.Sched.Admit = func(pkt *ethernet.Packet) bool {
		byID[pkt.ID] = pkt.Payload.(*tracked)
		return true
	}
	aborted := 0
	sys.Sched.OnComplete = func(req *sched.Request) {
		if byID[req.Pkt.ID].inHandler {
			t.Fatalf("request %d (failed=%v) completed with its handler still on a stack", req.Pkt.ID, req.Failed)
		}
		if !req.Failed {
			return
		}
		aborted++
		if req.Pkt.Size != 64 || req.Pkt.Payload != nil {
			t.Fatalf("aborted request answered with %d bytes, payload %v", req.Pkt.Size, req.Pkt.Payload)
		}
	}
	res := sys.Run(app, 400_000, sim.Millis(1), sim.Millis(6))
	if aborted == 0 || int64(aborted) != res.Aborts {
		t.Fatalf("%d aborted completions, %d counted", aborted, res.Aborts)
	}
	if n := sys.Env.LiveProcs(); n != 0 {
		t.Fatalf("%d live procs", n)
	}
}

// A handler whose deferred function needs simulated time while an
// abandoned fetch unwinds it would stay suspended with nobody left to
// resume it; the adapter fails the run instead of leaking the request.
func TestAbortRejectsSuspendingUnwind(t *testing.T) {
	const arrayBytes = 4 << 20
	cfg := Preset(Adios, arrayBytes/5)
	cfg.Seed = 11
	plan, err := faults.ParseSpec("wr=0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	sys := NewSystem(cfg)
	app := workload.NewArrayApp(sys.Mgr, sys.Node, arrayBytes)
	app.WarmCache()
	inner := app.Handler()
	sys.Start(func(ctx workload.Ctx, payload any) (any, int) {
		defer func() {
			if r := recover(); r != nil {
				ctx.Block(func(func()) {})
				panic(r)
			}
		}()
		return inner(ctx, payload)
	})
	defer func() {
		const want = "workload: handler suspended while unwinding an abandoned fetch"
		if r := recover(); r != want {
			t.Fatalf("run ended with %v, want panic %q", r, want)
		}
	}()
	sys.Run(app, 400_000, sim.Millis(1), sim.Millis(6))
}
