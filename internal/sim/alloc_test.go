package sim

import "testing"

// The alloc guards pin the kernel's zero-allocation contract on every
// hot path: once wheel buckets are warm, sleeping (of procs and tasks),
// gate handoffs and task firings must not allocate.
// testing.AllocsPerRun counts mallocs process-wide, and exactly one
// goroutine executes simulator code at a time, so measuring from inside
// a process (around a park/resume) is sound: the count covers the
// parking process, the event loop, and any process the loop resumes in
// between.
//
// They skip under the race detector, which instruments allocation and
// channel operations and breaks the zero-alloc accounting.

func TestSleepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	e := NewEnv(1)
	var got float64
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 64; i++ { // warm the wheel buckets
			p.Sleep(10)
		}
		got = testing.AllocsPerRun(200, func() { p.Sleep(10) })
	})
	e.RunAll()
	if got != 0 {
		t.Fatalf("Sleep allocates %v per op, want 0", got)
	}
}

func TestGatePingPongZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	e := NewEnv(1)
	ga, gb := NewGate(e), NewGate(e)
	var got float64
	stop := false
	e.Go("a", func(p *Proc) {
		for i := 0; i < 64; i++ {
			gb.Wake()
			ga.Wait(p)
		}
		got = testing.AllocsPerRun(200, func() {
			gb.Wake()
			ga.Wait(p)
		})
		stop = true
		gb.Wake()
	})
	e.Go("b", func(p *Proc) {
		for !stop {
			gb.Wait(p)
			ga.Wake()
		}
	})
	e.RunAll()
	if got != 0 {
		t.Fatalf("gate ping-pong allocates %v per round, want 0", got)
	}
}

func TestTaskZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	e := NewEnv(1)
	n := 0
	var tk *Task
	tk = NewTask(e, "tick", func() {
		if n > 0 {
			n--
			tk.FireAfter(10)
		}
	})
	n = 64 // warm the wheel
	tk.FireAfter(1)
	e.RunAll()
	got := testing.AllocsPerRun(20, func() {
		n = 100
		tk.FireAfter(1)
		e.RunAll()
	})
	if got != 0 {
		t.Fatalf("task firing allocates %v per chain, want 0", got)
	}
}

// TestTaskSleepZeroAllocs covers both branches of Task.Sleep: alone on
// the wheel every sleep skips ahead inline; with a second task ticking
// every cycle something is always pending first, so every sleep arms.
func TestTaskSleepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	for _, contended := range []bool{false, true} {
		e := NewEnv(1)
		n := 0
		var sleeper, ticker *Task
		sleeper = NewTask(e, "sleeper", func() {
			for n > 0 {
				n--
				if !sleeper.Sleep(10) {
					return
				}
			}
		})
		ticker = NewTask(e, "ticker", func() {
			if n > 0 {
				ticker.FireAfter(1)
			}
		})
		chain := func() {
			n = 100
			sleeper.FireAfter(1)
			if contended {
				ticker.FireAfter(1)
			}
			e.RunAll()
		}
		// A chain spans ~1000 cycles and so crosses into a new level-1
		// bucket: warm through two level-1 revolutions, until every bucket
		// of both levels has held both tasks.
		for e.Now() < 2*wheelSize*wheelSize {
			chain()
		}
		before := e.KernelStats().SkipAheads
		got := testing.AllocsPerRun(20, chain)
		if got != 0 {
			t.Fatalf("contended=%v: Task.Sleep allocates %v per chain, want 0", contended, got)
		}
		// Checked builds never skip ahead, so there both rounds arm.
		if skipped := e.KernelStats().SkipAheads > before; !e.checked && skipped == contended {
			t.Fatalf("contended=%v took the wrong branch (skip-aheads moved: %v)", contended, skipped)
		}
	}
}
