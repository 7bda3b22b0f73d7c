package sched

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/simcheck"
)

// The cores are tasks, so a flat-tier run has no process at all: nothing
// exists that a coroutine switch could switch to.
func TestFlatTierRunsWithoutProcs(t *testing.T) {
	r := newArrayRig(t, tierSetup{sched: DefaultConfig(), frames: 48}, true)
	r.sched.OnComplete = func(*Request) {
		if n := r.env.LiveProcs(); n != 0 {
			t.Fatalf("%d live procs on the flat tier", n)
		}
	}
	r.drive(400, sim.Micros(1))
	if got := r.sched.Completed.Value(); got != 400 {
		t.Fatalf("completed %d of 400", got)
	}
	if ks := r.env.KernelStats(); ks.Parks != 0 || ks.Switches != 0 {
		t.Fatalf("flat-tier run parked %d times and switched %d times, want 0", ks.Parks, ks.Switches)
	}
}

// On the goroutine tier the only processes are unithreads: at no
// completion may more be alive than requests are in flight (sent, not
// yet completed; the completing one is still inside its body).
func TestGoroutineTierProcsAreUnithreads(t *testing.T) {
	busy := DefaultConfig()
	busy.Wait = BusyWait
	busy.Tx = SyncTx
	for _, cfg := range []Config{DefaultConfig(), busy} {
		r := newArrayRig(t, tierSetup{sched: cfg, frames: 48}, false)
		gap := sim.Micros(1)
		peak := 0
		r.sched.OnComplete = func(*Request) {
			sent := int((r.env.Now()-1)/gap) + 1
			inflight := sent - int(r.sched.Completed.Value()) + 1
			live := r.env.LiveProcs()
			if live > inflight { // Errorf: this runs on a unithread's goroutine
				t.Errorf("wait=%v: %d live procs with %d requests in flight", cfg.Wait, live, inflight)
			}
			if live > peak {
				peak = live
			}
		}
		r.drive(400, gap)
		if got := r.sched.Completed.Value(); got != 400 {
			t.Fatalf("wait=%v: completed %d of 400", cfg.Wait, got)
		}
		if peak == 0 {
			t.Fatalf("wait=%v: no unithread process was ever alive", cfg.Wait)
		}
	}
}

// The liveness oracle must see a wedged core: one that is neither armed
// nor registered anywhere, and one whose idle-gate wake was lost.
func TestCoreLivenessCatchesWedgedWorker(t *testing.T) {
	for _, flat := range []bool{true, false} {
		r := newArrayRig(t, tierSetup{sched: DefaultConfig(), frames: 48}, flat)
		r.drive(100, sim.Micros(1))
		if err := r.sched.CheckLiveness(); err != nil {
			t.Fatalf("flat=%v: healthy run reported: %v", flat, err)
		}
		w := r.sched.workers[3]

		// A lost wake: work arrives, nobody tells the sleeping core.
		w.inbox.PushBack(workItem{})
		expectViolation(t, r.sched.CheckLiveness(), "worker3", "lost wake")
		w.inbox.PopBack()

		// A dropped registration: the core is in no waiter slot at all.
		w.idleGate.Reset()
		expectViolation(t, r.sched.CheckLiveness(), "worker3", "state=idle")

		d := r.sched.dispatchers[0]
		w.idleGate.Arm(w.task)
		d.gate.Reset()
		expectViolation(t, r.sched.CheckLiveness(), "dispatcher0", "state=idle")
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
