package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/paging"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tpcc"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/workload/steptest"
)

// These tests hold the properties of the one request-execution path that
// need an assembled system: the abort path replays its pinned run, no run
// has a sim.Proc or switches a coroutine, and an abandoned fetch ends its
// request through the stepper's Abort, once, before the request completes.

// formDiffStats is the run's summary, every counter of its pinned row.
type formDiffStats struct {
	digest    uint64
	completed int64
	aborts    int64
	faults    int64
	retries   int64
	cpu       int64
	p99us     float64
}

func runFormDiffOnce(t *testing.T) (formDiffStats, string) {
	t.Helper()
	const arrayBytes = 4 << 20
	cfg := Preset(Adios, arrayBytes/5)
	cfg.Seed = 11
	// Half of all wire posts fail: demand fetches retry up to the
	// attempt budget and a measurable fraction abort — the simulated
	// SIGBUS, which ends a request in the machine.
	plan, err := faults.ParseSpec("wr=0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = plan
	sys := NewSystem(cfg)
	app := workload.NewArrayApp(sys.Mgr, sys.Mem, arrayBytes)
	app.WarmCache()
	sys.StartApp(app)
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
	return st, fmt.Sprintf("%+v trace=%s", st, steptest.TraceSum(rec.Events()))
}

// The abort path, pinned (the rest is sched.TestBlockingMatchesNativeStepper):
// under heavy wire-error injection ArrayApp's requests must reproduce the
// row of testdata/stepper_digests.txt — the fetch-abort handling,
// per-request digests, the trace's SHA-256 — recorded, and proven equal,
// on both forms a handler could take before the stackful one left (hence
// the test's name).
func TestBlockingMatchesNativeWithAborts(t *testing.T) {
	st, row := runFormDiffOnce(t)
	if st.aborts == 0 {
		t.Fatalf("fault plan produced no aborts; the row does not cover the abort path: %+v", st)
	}
	steptest.Pinned(t, "aborts", row)
}

// buildTPCC assembles a small TPC-C system at 20 % local memory.
func buildTPCC(mode Mode) (*System, *tpcc.DB) {
	cfg := tpcc.DefaultConfig(1)
	cfg.CustomersPerDistrict = 300
	cfg.ItemCount = 5000
	cfg.InitialOrders = 300
	cfg.OrderCapacity = 2000
	probe := NewSystem(Preset(Adios, 1<<22))
	size := tpcc.New(probe.Env, probe.Mgr, probe.Mem, cfg).TotalBytes()
	sys := NewSystem(Preset(mode, size/5))
	db := tpcc.New(sys.Env, sys.Mgr, sys.Mem, cfg)
	db.WarmCache()
	sys.StartApp(db)
	return sys, db
}

// No sim.Proc exists in any assembled system's run, whatever the mode,
// and no coroutine is ever switched to: nothing parks, and TPC-C — locks,
// Block waits, B-tree descents and all — runs as steps of the worker
// cores' machine like everything else.
func TestNoProcInAnySystemRun(t *testing.T) {
	check := func(name string, sys *System, app workload.App, rps float64) {
		t.Helper()
		sys.Sched.OnComplete = func(*sched.Request) {
			if n := sys.Env.LiveProcs(); n != 0 {
				t.Fatalf("%s: %d live procs", name, n)
			}
		}
		res := sys.Run(app, rps, sim.Millis(1), sim.Millis(4))
		ks := sys.Env.KernelStats()
		if res.Completed == 0 || ks.Parks != 0 || ks.Switches != 0 {
			t.Fatalf("%s: completed %d, parked %d times, switched %d times",
				name, res.Completed, ks.Parks, ks.Switches)
		}
	}
	for _, mode := range []Mode{Adios, DiLOS, DiLOSP, Hermit} {
		sys, app := buildMicro(mode, testArray, 0.20, 1)
		check("micro/"+mode.String(), sys, app, 500_000)
	}
	for _, mode := range []Mode{Adios, DiLOSP} {
		sys, db := buildTPCC(mode)
		check(fmt.Sprintf("tpcc/%v", mode), sys, db, 100_000)
	}
}

// abortWatch is ArrayApp with its stepper's Abort calls counted per
// request: Begin remembers which payload a frame carries, Abort counts
// against it.
type abortWatch struct {
	*workload.ArrayApp
	t       *testing.T
	payload map[*workload.StepFrame]any
	aborts  map[any]int
	calls   int
}

func (a *abortWatch) StepHandler() workload.StepHandler {
	return watchedStepper{a.ArrayApp.StepHandler(), a}
}

type watchedStepper struct {
	workload.StepHandler
	w *abortWatch
}

func (s watchedStepper) Begin(f *workload.StepFrame, payload any) {
	s.w.payload[f] = payload
	s.StepHandler.Begin(f, payload)
}

func (s watchedStepper) Abort(f *workload.StepFrame, err error) {
	if _, ok := err.(*paging.FetchError); !ok {
		s.w.t.Fatalf("Abort with %v, want a *paging.FetchError", err)
	}
	s.w.aborts[s.w.payload[f]]++
	s.w.calls++
	s.StepHandler.Abort(f, err)
}

// An abandoned fetch ends its request in the machine — the simulated
// SIGBUS: the stepper's Abort runs exactly once, before the request
// completes, and the request is answered with the 64-byte abort response
// and no payload; a request that completes normally never sees Abort.
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
	app := &abortWatch{ArrayApp: workload.NewArrayApp(sys.Mgr, sys.Mem, arrayBytes), t: t,
		payload: map[*workload.StepFrame]any{}, aborts: map[any]int{}}
	app.WarmCache()
	sys.StartApp(app)
	byID := map[uint64]any{}
	sys.Sched.Admit = func(pkt *ethernet.Packet) bool {
		byID[pkt.ID] = pkt.Payload
		app.aborts[pkt.Payload] = 0 // a recycled message record starts a new request
		return true
	}
	aborted := 0
	sys.Sched.OnComplete = func(req *sched.Request) {
		if n := app.aborts[byID[req.Pkt.ID]]; n > 1 || req.Failed != (n == 1) {
			t.Fatalf("request %d (failed=%v) completed after %d Abort calls", req.Pkt.ID, req.Failed, n)
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
	if aborted == 0 || int64(aborted) != res.Aborts || app.calls != aborted {
		t.Fatalf("%d aborted completions, %d counted, %d Abort calls", aborted, res.Aborts, app.calls)
	}
	if n := sys.Env.LiveProcs(); n != 0 {
		t.Fatalf("%d live procs", n)
	}
}
