package rdma

import (
	"testing"

	"repro/internal/sim"
)

// scriptItc is a deterministic test interceptor: it fails the first
// failN posted work requests, then behaves per the fixed delay/factor.
type scriptItc struct {
	failN  int
	delay  sim.Time
	factor float64
	serve  sim.Time
}

func (s *scriptItc) WROutcome(kind OpKind, bytes int) (bool, sim.Time) {
	if s.failN > 0 {
		s.failN--
		return true, 0
	}
	return false, s.delay
}

func (s *scriptItc) LinkFactor(at sim.Time) float64 {
	if s.factor == 0 {
		return 1
	}
	return s.factor
}

func (s *scriptItc) ServeDelay(at sim.Time) sim.Time { return s.serve }

func TestErrorCompletionFlushesAndResets(t *testing.T) {
	env := sim.NewEnv(1)
	nic := testNIC(env)
	nic.SetInterceptor(&scriptItc{failN: 1})
	cq := NewCQ("cq")
	qp := nic.CreateQP("qp", cq)
	remote := make([]byte, 4096)
	for i := range remote {
		remote[i] = 0xEE
	}

	// Three in-flight reads: the first completes in error, pushing the QP
	// into the error state; the trailing two must flush.
	dsts := make([][]byte, 3)
	for i := range dsts {
		dsts[i] = make([]byte, 4096)
		if err := qp.PostRead(dsts[i], remote, i); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
	var errs []error
	var rejected bool
	cq.Notify = func() {
		for _, c := range cq.Poll(16) {
			errs = append(errs, c.Err)
			if !rejected {
				// While draining/resetting, new posts must be refused.
				if err := qp.PostRead(make([]byte, 64), remote[:64], nil); err != ErrQPError {
					t.Errorf("post during error state: %v, want ErrQPError", err)
				}
				rejected = true
			}
		}
	}
	env.RunAll()

	if len(errs) != 3 || errs[0] != ErrWR || errs[1] != ErrWRFlushed || errs[2] != ErrWRFlushed {
		t.Fatalf("completion errors = %v", errs)
	}
	for i, dst := range dsts {
		if dst[0] != 0 {
			t.Fatalf("failed read %d moved data", i)
		}
	}
	if !rejected {
		t.Fatal("error-state post rejection never exercised")
	}
	if qp.Errored() {
		t.Fatal("QP still errored after drain + reset")
	}
	if nic.CompletionErrors.Value() != 3 || nic.QPResets.Value() != 1 {
		t.Fatalf("errors = %d, resets = %d", nic.CompletionErrors.Value(), nic.QPResets.Value())
	}

	// After the reset cycle the QP must carry traffic again, correctly.
	if err := qp.PostRead(dsts[0], remote, nil); err != nil {
		t.Fatalf("post after reset: %v", err)
	}
	env.RunAll()
	if dsts[0][0] != 0xEE {
		t.Fatal("post-reset read moved no data")
	}
}

func TestWaitSlotSurvivesErrorState(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.QPDepth = 1
	nic := NewNIC(env, cfg)
	nic.SetInterceptor(&scriptItc{failN: 1})
	cq := NewCQ("cq")
	qp := nic.CreateQP("qp", cq)
	remote := make([]byte, 4096)

	if err := qp.PostRead(make([]byte, 4096), remote, nil); err != nil {
		t.Fatal(err)
	}
	// The waiter parks on the full (and soon errored) QP; it must be
	// released once the reset cycle finishes, not before.
	var posted sim.Time
	var waiter *sim.Task
	waiter = sim.NewTask(env, "waiter", func() {
		if qp.Full() || qp.Errored() { // Mesa: the errored completion fires it too
			qp.AddSlotWaiter(waiter)
			return
		}
		if qp.Errored() {
			t.Error("released while still errored")
		}
		if err := qp.PostRead(make([]byte, 4096), remote, nil); err != nil {
			t.Errorf("post after wait: %v", err)
		}
		posted = env.Now()
	})
	waiter.FireAt(env.Now())
	env.RunAll()
	if posted == 0 {
		t.Fatal("waiter never released")
	}
	if cq.Len() != 2 {
		t.Fatalf("completions = %d, want 2", cq.Len())
	}
}

func TestRNRDelayDefersCompletion(t *testing.T) {
	baseline := func(itc Interceptor) sim.Time {
		env := sim.NewEnv(1)
		nic := testNIC(env)
		nic.SetInterceptor(itc)
		cq := NewCQ("cq")
		qp := nic.CreateQP("qp", cq)
		var done sim.Time
		cq.Notify = func() {
			c := cq.Poll(1)[0]
			if c.Err != nil {
				t.Fatalf("unexpected error %v", c.Err)
			}
			done = c.At
		}
		if err := qp.PostRead(make([]byte, 4096), make([]byte, 4096), nil); err != nil {
			t.Fatal(err)
		}
		env.RunAll()
		return done
	}
	clean := baseline(nil)
	delayed := baseline(&scriptItc{delay: sim.Micros(7)})
	if delayed != clean+sim.Micros(7) {
		t.Fatalf("RNR-delayed completion at %v, want %v", delayed, clean+sim.Micros(7))
	}
	slowed := baseline(&scriptItc{factor: 3})
	if slowed <= clean {
		t.Fatalf("degraded-link completion %v not after clean %v", slowed, clean)
	}
	stalled := baseline(&scriptItc{serve: sim.Micros(11)})
	if stalled != clean+sim.Micros(11) {
		t.Fatalf("stalled completion at %v, want %v", stalled, clean+sim.Micros(11))
	}
}

// stallItc stalls the memory node over [from, until) and perturbs
// nothing else.
type stallItc struct{ from, until sim.Time }

func (s stallItc) WROutcome(OpKind, int) (bool, sim.Time) { return false, 0 }
func (s stallItc) LinkFactor(sim.Time) float64            { return 1 }
func (s stallItc) ServeDelay(at sim.Time) sim.Time {
	if at >= s.from && at < s.until {
		return s.until - at
	}
	return 0
}

// TestStallDelaysServeOnBothVerbs pins Interceptor.ServeDelay's rule on a
// two-sided NIC: an operation arriving in a memory-node stall waits for
// its end before it is served, a READ as much as a WRITE. The stall
// (500 cycles past the arrival) is shorter than a serve (1 145 cycles),
// so a READ served first and only then checked against the stall would
// not be delayed at all.
func TestStallDelaysServeOnBothVerbs(t *testing.T) {
	cfg := DefaultConfig()
	xfer := sim.Time(float64(4096+cfg.WireOverhead) * cfg.CyclesPerByte)
	run := func(kind OpKind, arrive sim.Time, stalled bool) sim.Time {
		env := sim.NewEnv(1)
		nic := NewNIC(env, cfg)
		nic.EnableTwoSided(DefaultServerConfig())
		if stalled {
			nic.SetInterceptor(stallItc{from: arrive - 10, until: arrive + 500})
		}
		cq := NewCQ("cq")
		qp := nic.CreateQP("qp", cq)
		var done sim.Time
		cq.Notify = func() { done = cq.Poll(1)[0].At }
		remote := make([]byte, 4096)
		var err error
		if kind == OpRead {
			err = qp.PostReadAlias(remote, nil)
		} else {
			err = qp.PostWrite(remote, make([]byte, 4096), nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		env.RunAll()
		return done
	}
	// A READ reaches the node after the request flight; a WRITE after a
	// quarter of it, its data, and the other three quarters.
	readArrive := cfg.ReqFlight
	writeArrive := cfg.ReqFlight/4 + xfer + cfg.ReqFlight*3/4
	for _, c := range []struct {
		kind   OpKind
		arrive sim.Time
	}{{OpRead, readArrive}, {OpWrite, writeArrive}} {
		if got := run(c.kind, c.arrive, false); got != 5698 {
			t.Fatalf("%v without a stall completes at %d, want 5698", c.kind, got)
		}
		// The stall's end (arrival + 500), the serve's 1 145 cycles, a
		// READ's data (953) after its serve, and the 1 700-cycle
		// response flight.
		if got := run(c.kind, c.arrive, true); got != 6198 {
			t.Fatalf("%v arriving in a stall completes at %d, want 6198 (wait out the stall, then serve)", c.kind, got)
		}
	}
}
