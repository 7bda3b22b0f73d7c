package sched

import (
	"strings"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/workload"
)

// The cores are tasks and a request is steps of their machine, so no
// run has a process at all — nothing ever parks — and no coroutine
// either: nothing exists that a switch could switch to.
func TestRunsWithoutProcs(t *testing.T) {
	busy := DefaultConfig()
	busy.Wait, busy.Tx = BusyWait, SyncTx
	for _, cfg := range []Config{DefaultConfig(), busy} {
		r := newArrayRig(t, rigSetup{sched: cfg, frames: 48})
		r.sched.OnComplete = func(*Request) {
			if n := r.env.LiveProcs(); n != 0 {
				t.Fatalf("wait=%v: %d live procs", cfg.Wait, n)
			}
		}
		r.drive(400, sim.Micros(1))
		if got := r.sched.Completed.Value(); got != 400 {
			t.Fatalf("wait=%v: completed %d of 400", cfg.Wait, got)
		}
		if ks := r.env.KernelStats(); ks.Parks != 0 || ks.Switches != 0 {
			t.Fatalf("wait=%v: parked %d times and switched %d times", cfg.Wait, ks.Parks, ks.Switches)
		}
	}
}

// The liveness oracle must see a wedged core: one that is neither armed
// nor registered anywhere, and one whose idle-gate wake was lost.
func TestCoreLivenessCatchesWedgedWorker(t *testing.T) {
	r := newArrayRig(t, rigSetup{sched: DefaultConfig(), frames: 48})
	r.drive(100, sim.Micros(1))
	if err := r.sched.CheckLiveness(); err != nil {
		t.Fatalf("healthy run reported: %v", err)
	}
	w := r.sched.workers[3]

	// A lost wake: work arrives, nobody tells the sleeping core.
	w.inbox.PushBack(&Request{})
	expectViolation(t, r.sched.CheckLiveness(), "worker3", "lost wake")
	w.inbox.PopBack()

	// A dropped registration: the core is in no waiter slot at all.
	idle := w.idleGate
	w.idleGate = sim.NewGate(r.env)
	expectViolation(t, r.sched.CheckLiveness(), "worker3", "state=idle")

	d := r.sched.dispatchers[0]
	w.idleGate = idle
	d.gate = sim.NewGate(r.env)
	expectViolation(t, r.sched.CheckLiveness(), "dispatcher0", "state=idle")
}

// Under delegated TX a finished request is, for a while, on no core and
// in no queue: the worker has closed it and only its TX completion, still
// on the wire, holds the record. That is the two-owner rule at work, not a
// lost request — and were the worker's half not recorded, it would be.
func TestCoreLivenessAllowsRequestAwaitingItsTxCompletion(t *testing.T) {
	r := newArrayRig(t, rigSetup{sched: DefaultConfig(), frames: 48})
	r.env.At(1, func() {
		r.net.SendToNode(&ethernet.Packet{Payload: &workload.ArrayMsg{Index: 7}, Size: 64, TxTime: 1})
	})
	for at := sim.Time(100); ; at += 100 {
		if at > sim.Millis(1) {
			t.Fatal("no request was ever seen retired with its TX completion outstanding")
		}
		r.env.Run(at)
		if reqs := r.sched.reqs; len(reqs) == 1 && reqs[0].retired && reqs[0].slot {
			break
		}
	}
	if err := r.sched.CheckLiveness(); err != nil {
		t.Fatalf("a request awaiting its TX completion reported: %v", err)
	}
	r.sched.reqs[0].retired = false
	expectViolation(t, r.sched.CheckLiveness(), "running request is on no core")
	// Woken, yet on no ready ring; preempted, yet in no queue.
	for _, state := range []int{flatReady, flatQueued} {
		r.sched.reqs[0].state = state
		expectViolation(t, r.sched.CheckLiveness(), "queues that hold them disagree")
	}
	// Woken and on a ready ring: accounted for.
	r.sched.reqs[0].state = flatReady
	r.sched.workers[0].ready.PushBack(r.sched.reqs[0])
	if err := r.sched.checkRunnable(); err != nil {
		t.Fatalf("a woken request on a ready ring reported: %v", err)
	}
}

func expectViolation(t *testing.T, err error, wants ...string) {
	t.Helper()
	v, ok := simcheck.AsViolation(err)
	if !ok || v.Oracle != "sched/core-liveness" {
		t.Fatalf("want a sched/core-liveness violation, got %v", err)
	}
	for _, want := range wants {
		if !strings.Contains(v.Error(), want) {
			t.Fatalf("violation %q does not mention %q", v.Error(), want)
		}
	}
}

// A panic raised inside a request's Step — a simcheck violation, here,
// on the Step that resumes the request after its fault — crosses the
// core that called it and reaches Run's caller with its value unchanged.
func TestHandlerPanicReachesRun(t *testing.T) {
	violation := simcheck.New("test/handler", "raised inside a request's step")
	served := 0
	var r *rig
	r = newRig(t, DefaultConfig(), phases{
		func(ctx workload.StepCtx, payload any) (sim.Time, workload.StepStatus) { return r.load(ctx, payload) },
		func(workload.StepCtx, any) (sim.Time, workload.StepStatus) {
			if served++; served == 10 {
				panic(violation)
			}
			return 0, workload.StepDone
		},
	}, 8)
	pages := make([]int64, 64)
	for i := range pages {
		pages[i] = int64(i)
	}
	r.inject(pages, sim.Micros(1))
	var rec any
	func() {
		defer func() { rec = recover() }()
		r.env.Run(sim.Millis(10))
	}()
	if rec != violation {
		t.Fatalf("Run panicked with %v, want the handler's violation itself", rec)
	}
	if r.mgr.Faults.Value() < 10 {
		t.Fatalf("%d faults: the panicking Step did not follow one", r.mgr.Faults.Value())
	}
}
