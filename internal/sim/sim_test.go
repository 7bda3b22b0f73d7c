package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Micros(1) != 2000 {
		t.Fatalf("Micros(1) = %d, want 2000", Micros(1))
	}
	if Millis(1) != 2_000_000 {
		t.Fatalf("Millis(1) = %d, want 2e6", Millis(1))
	}
	if Seconds(1) != CyclesPerSec {
		t.Fatalf("Seconds(1) = %d, want %d", Seconds(1), CyclesPerSec)
	}
	if got := Micros(2.5).Micros(); got != 2.5 {
		t.Fatalf("round trip = %v, want 2.5", got)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEnv(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	// Equal timestamps fire in schedule order.
	e.At(20, func() { order = append(order, 4) })
	e.RunAll()
	want := []int{1, 2, 4, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %d, want 30", e.Now())
	}
}

func TestEventHeapRandomized(t *testing.T) {
	// Property: for random insertion orders, events pop in
	// nondecreasing-time order with FIFO tie-break.
	check := func(times []uint16) bool {
		e := NewEnv(1)
		var fired []Time
		for _, raw := range times {
			at := Time(raw)
			e.At(at, func() { fired = append(fired, at) })
		}
		e.RunAll()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEnv(1)
	fired := 0
	e.At(100, func() { fired++ })
	e.At(200, func() { fired++ })
	e.Run(150)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 150 {
		t.Fatalf("now = %d, want 150", e.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEnv(1)
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(50, func() {})
	})
	e.RunAll()
}

func TestProcSleep(t *testing.T) {
	e := NewEnv(1)
	var wake []Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10)
		wake = append(wake, p.Now())
		p.Sleep(25)
		wake = append(wake, p.Now())
		p.Sleep(0) // no-op
		wake = append(wake, p.Now())
	})
	e.RunAll()
	if len(wake) != 3 || wake[0] != 10 || wake[1] != 35 || wake[2] != 35 {
		t.Fatalf("wake = %v, want [10 35 35]", wake)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", e.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEnv(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a1")
		p.Sleep(20)
		trace = append(trace, "a2")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15)
		trace = append(trace, "b1")
	})
	e.RunAll()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestGateHandoff(t *testing.T) {
	e := NewEnv(1)
	g := NewGate(e)
	var trace []string
	e.Go("waiter", func(p *Proc) {
		g.Wait(p)
		trace = append(trace, "woken")
	})
	e.Go("waker", func(p *Proc) {
		p.Sleep(100)
		trace = append(trace, "waking")
		g.Wake()
	})
	e.RunAll()
	if len(trace) != 2 || trace[0] != "waking" || trace[1] != "woken" {
		t.Fatalf("trace = %v", trace)
	}
}

func TestGatePendingWake(t *testing.T) {
	e := NewEnv(1)
	g := NewGate(e)
	g.Wake() // nobody waiting: remembered
	g.Wake() // coalesced
	waits := 0
	e.Go("w", func(p *Proc) {
		g.Wait(p) // consumes pending, returns immediately
		waits++
		// Second wait must block until the explicit wake below.
		e.After(50, func() { g.Wake() })
		g.Wait(p)
		waits++
		if p.Now() != 50 {
			t.Errorf("second wait woke at %d, want 50", p.Now())
		}
	})
	e.RunAll()
	if waits != 2 {
		t.Fatalf("waits = %d, want 2", waits)
	}
}

func TestDeterminism(t *testing.T) {
	// The same seed must produce an identical execution trace.
	run := func() []int64 {
		e := NewEnv(42)
		var items []int
		var trace []int64
		gates := make([]*Gate, 3)
		for w := range gates {
			g := NewGate(e)
			gates[w] = g
			e.Go("worker", func(p *Proc) {
				for {
					for len(items) == 0 {
						g.Wait(p)
					}
					v := items[0]
					items = items[1:]
					p.Sleep(Time(e.Rand().Intn(100) + 1))
					trace = append(trace, int64(v)*1_000_000+int64(p.Now()))
				}
			})
		}
		e.Go("gen", func(p *Proc) {
			for i := 0; i < 50; i++ {
				p.Sleep(e.Rand().Exp(30))
				items = append(items, i)
				gates[i%len(gates)].Wake()
			}
		})
		e.Run(Seconds(1))
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTeardownReleasesParkedProcs(t *testing.T) {
	e := NewEnv(1)
	for i := 0; i < 10; i++ {
		g := NewGate(e)
		e.Go("stuck", func(p *Proc) { g.Wait(p) })
	}
	e.Run(100)
	if e.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs after teardown", e.LiveProcs())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverge")
		}
	}
	g := NewRNG(7)
	mean := Micros(10)
	var sum Time
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Exp(mean)
	}
	avg := float64(sum) / n
	if avg < 0.95*float64(mean) || avg > 1.05*float64(mean) {
		t.Fatalf("Exp mean = %.0f, want ~%d", avg, mean)
	}
}
