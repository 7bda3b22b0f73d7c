package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/simcheck"
)

// runRecovering calls e.RunAll and returns what it panicked with.
func runRecovering(e *Env) (rec any) {
	defer func() { rec = recover() }()
	e.RunAll()
	return nil
}

// TestProcBodyPanicReachesRun: whatever a process panics with — in its
// body, after a resume, or in a plain callback the loop fires while it
// is parked — arrives at Run's caller unchanged, so a simcheck oracle
// firing in process context is recoverable like one firing in the loop.
func TestProcBodyPanicReachesRun(t *testing.T) {
	violation := simcheck.New("test/proc", "raised in process context")
	for name, tc := range map[string]struct {
		want  any
		setup func(e *Env)
	}{
		"body": {violation, func(e *Env) {
			e.Go("p", func(*Proc) { panic(violation) })
		}},
		"after resume": {violation, func(e *Env) {
			e.Go("other", func(p *Proc) { p.Sleep(5) })
			e.Go("p", func(p *Proc) {
				p.Sleep(10)
				panic(violation)
			})
		}},
		"inline callback": {violation, func(e *Env) {
			e.At(5, func() { panic(violation) })
			e.Go("p", func(p *Proc) { p.Sleep(10) })
		}},
		// The kernel's own check, raised by the loop when it fires the
		// task of a process whose body has ended.
		"resume of a terminated proc": {"sim: resuming terminated proc gone", func(e *Env) {
			var gone *Proc
			e.Go("gone", func(p *Proc) { gone = p })
			e.Go("p", func(p *Proc) {
				gone.Task().FireAt(5)
				p.Sleep(10)
			})
		}},
	} {
		e := NewEnv(1)
		tc.setup(e)
		rec := runRecovering(e)
		if rec != tc.want {
			t.Errorf("%s: Run panicked with %v, want %v itself", name, rec, tc.want)
		}
		if v, ok := simcheck.AsViolation(rec); ok != (tc.want == violation) || (ok && v != violation) {
			t.Errorf("%s: AsViolation(%v) = %v, %v", name, rec, v, ok)
		}
	}
}

// TestLostWakeupOracle: with oracles armed, a process still parked at
// the end of a run with neither a pending firing nor a waiter slot is a
// lost wakeup, reported by name; one waiting on a gate nobody wakes, or
// sleeping past the run bound, is not.
func TestLostWakeupOracle(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)
	for _, tc := range []struct {
		name string
		body func(g *Gate, p *Proc)
		lost bool
	}{
		{"no-waker", func(_ *Gate, p *Proc) { p.Park() }, true},
		{"woken-then-no-waker", func(g *Gate, p *Proc) {
			p.Env().At(10, g.Wake)
			g.Wait(p) // registered, then woken: no longer a waiter
			p.Park()
		}, true},
		{"gate-nobody-wakes", func(g *Gate, p *Proc) { g.Wait(p) }, false},
		{"sleeps-past-until", func(_ *Gate, p *Proc) { p.Sleep(1000) }, false},
	} {
		e := NewEnv(1)
		g := NewGate(e)
		e.Go(tc.name, func(p *Proc) { tc.body(g, p) })
		rec := func() (rec any) {
			defer func() { rec = recover() }()
			e.Run(100)
			return nil
		}()
		if !tc.lost {
			if rec != nil {
				t.Errorf("%s: Run panicked with %v", tc.name, rec)
			}
			continue
		}
		v, ok := simcheck.AsViolation(rec)
		if !ok || v.Oracle != "sim/lost-wakeup" || !strings.Contains(v.Error(), "proc="+tc.name+" ") {
			t.Errorf("%s: Run panicked with %v, want sim/lost-wakeup naming the proc", tc.name, rec)
		}
	}
}

// settledGoroutines counts goroutines once the count holds still: the
// previous test's runner reports to its parent before it exits, so for
// a moment a new test can still see it (one failure in four runs of
// this file under -race, before this).
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

// TestPanickingRunReleasesGoroutines: a run that panics with 100
// processes parked must not leak them — the swarm's shrinker and the
// mutation smoke tests re-run failing scenarios in one process — and
// must not audit the wreckage: the parked processes below have no waker,
// which sim/lost-wakeup would report over the panic being delivered.
func TestPanickingRunReleasesGoroutines(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)
	before := settledGoroutines()
	e := NewEnv(1)
	unwound := 0
	for i := 0; i < 100; i++ {
		e.Go("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			p.Park()
		})
	}
	e.Go("finishes", func(p *Proc) { p.Sleep(1) }) // its coroutine ends before the panic
	e.Go("bad", func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	})
	if rec := runRecovering(e); rec != "boom" {
		t.Fatalf("Run panicked with %v, want boom", rec)
	}
	if unwound != 100 {
		t.Fatalf("%d of 100 parked processes ran their deferred functions", unwound)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before, %d after a panicking run", before, after)
	}
}

// TestTeardownUnwindsParkedProcs: the normal end of a run stops every
// parked coroutine, running deferred functions.
func TestTeardownUnwindsParkedProcs(t *testing.T) {
	before := settledGoroutines()
	e := NewEnv(1)
	unwound := 0
	for i := 0; i < 1000; i++ {
		e.Go("stuck", func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(Time(i))
			NewGate(e).Wait(p)
		})
	}
	if e.Run(5000); e.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs after teardown", e.LiveProcs())
	}
	if unwound != 1000 {
		t.Fatalf("%d of 1000 parked processes ran their deferred functions", unwound)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before, %d after teardown", before, after)
	}
}

// TestHandoffAtHorizon: a parked process whose firing falls exactly on
// the run bound is resumed by the loop; one cycle past the bound its
// event stays in the wheel and it never runs again.
func TestHandoffAtHorizon(t *testing.T) {
	for _, tc := range []struct {
		until   Time
		resumed bool
		pending int
	}{{until: 100, resumed: true, pending: 1}, {until: 99, resumed: false, pending: 2}} {
		e := NewEnv(1)
		var trace []string
		e.Go("a", func(p *Proc) {
			p.Sleep(50)
			trace = append(trace, "a@50")
			p.Sleep(1000) // parks at 50; b's firing at 100 is next
			trace = append(trace, "a@1050")
		})
		e.Go("b", func(p *Proc) {
			p.Sleep(100)
			trace = append(trace, "b@100")
			if p.Now() != 100 {
				t.Errorf("b resumed at %d, want 100", p.Now())
			}
		})
		if end := e.Run(tc.until); end != tc.until {
			t.Errorf("until=%d: Run returned %d", tc.until, end)
		}
		want := "a@50"
		if tc.resumed {
			want += " b@100"
		}
		if got := strings.Join(trace, " "); got != want {
			t.Errorf("until=%d: trace = %q, want %q", tc.until, got, want)
		}
		if e.Pending() != tc.pending {
			t.Errorf("until=%d: %d events left pending, want %d", tc.until, e.Pending(), tc.pending)
		}
		if e.LiveProcs() != 0 {
			t.Errorf("until=%d: leaked %d procs", tc.until, e.LiveProcs())
		}
	}
}

// TestRunFromTwoGoroutines: the loop goroutine is whichever goroutine
// calls Run; consecutive runs of one environment may come from different
// ones, with processes and events of the second scheduled by the first.
func TestRunFromTwoGoroutines(t *testing.T) {
	e := NewEnv(1)
	var trace []Time
	body := func(p *Proc) {
		p.Sleep(10)
		trace = append(trace, p.Now())
	}
	e.Go("first", body)
	e.At(150, func() { e.Go("second", body) })
	done := make(chan Time)
	go func() { done <- e.Run(100) }()
	if end := <-done; end != 100 {
		t.Fatalf("first Run returned %d, want 100", end)
	}
	e.Go("third", body)
	if end := e.Run(200); end != 200 {
		t.Fatalf("second Run returned %d, want 200", end)
	}
	if len(trace) != 3 || trace[0] != 10 || trace[1] != 110 || trace[2] != 160 {
		t.Fatalf("trace = %v, want [10 110 160]", trace)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", e.LiveProcs())
	}
}
