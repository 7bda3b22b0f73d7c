package sim

import "testing"

// The alloc guards pin the kernel's zero-allocation contract on every
// hot path: once the wheel is warm, sleeping (of procs and tasks), gate
// handoffs and task firings must not allocate, and neither must the
// wheel itself as simulated time reaches buckets it has never used.
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

// TestWheelAllocatesNothingOnceWarm runs self-re-arming chains whose
// strides file their events at levels 0, 1 and 2. After one turn of
// level 1, every further level-2 push lands in a bucket the run has
// never used: it must take a cascaded array from the spare list rather
// than allocate one. There are bucketCap chains, each with one event
// pending, so no bucket outgrows its first array and what is measured
// is the recycling alone. AllocsPerRun's own warm-up call runs the
// first millisecond after that turn; the second is measured.
func TestWheelAllocatesNothingOnceWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	e := NewEnv(1)
	strides := [bucketCap]Time{700, 5000, 300_000, 1_500_000} // levels 0, 1, 1, 2
	for i, stride := range strides {
		var tk *Task
		tk = NewTask(e, "chain", func() { tk.FireAfter(stride) })
		tk.FireAfter(Time(i)*stride/bucketCap + Time(i) + 1)
	}
	e.Run(wheelSize * wheelSize)
	got := testing.AllocsPerRun(1, func() { e.Run(e.Now() + Millis(1)) })
	if got != 0 {
		t.Fatalf("the wheel allocates %v times in a warm simulated millisecond, want 0", got)
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
