package sim

import "testing"

// The BenchmarkEnv* suite measures the simulator kernel's per-event and
// per-process costs (ns/op and allocs/op), for use while working on
// the kernel; CI runs them as a smoke check. A performance claim is
// made with the repository benchmark instead: BENCHMARK.json names it
// and benchmark/README.md ("Claiming a gain in a later PR") gives the
// protocol. BENCH_sim.json keeps the hand-recorded history of the
// early hot-path work (pooled proc runners, closure-free wake-ups,
// intrusive parked list).

// BenchmarkSimEventLoop is the headline kernel benchmark: a realistic
// mix of timer events and process park/resume cycles, the shape every
// simulated request exercises (dispatch wake-up, fault sleep, resume).
// One op = one fired event or one park/resume pair leg.
//
// The depth=* variants isolate the queue itself: eight self-rescheduling
// timer chains (the NIC-completion / link-hop / paging-latency shape —
// fire, then reschedule a fixed distance out) churn through a standing
// backlog of 1k/32k/256k pending events at mixed horizons (half within a
// few thousand cycles of the measured window, half exponentially out to
// milliseconds — the per-node QP timer / per-stripe write-back /
// fault-timer population a sharded run carries). The backlog never fires
// inside the measured window; it exists purely to expose the queue's
// sensitivity to pending-event count: O(log n) per schedule/dispatch for
// a binary heap, O(1) for the calendar queue. base keeps the original
// proc mill (park/resume switch included) for continuity with the
// PR 1 numbers in BENCH_sim.json's history.
func BenchmarkSimEventLoop(b *testing.B) {
	b.Run("base", benchEventLoopProcs)
	b.Run("depth=1k", func(b *testing.B) { benchEventLoopDepth(b, 1<<10) })
	b.Run("depth=32k", func(b *testing.B) { benchEventLoopDepth(b, 32<<10) })
	b.Run("depth=256k", func(b *testing.B) { benchEventLoopDepth(b, 256<<10) })
}

func benchEventLoopProcs(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	const procs = 8
	iters := b.N/procs + 1
	for i := 0; i < procs; i++ {
		e.Go("worker", func(p *Proc) {
			for j := 0; j < iters; j++ {
				p.Sleep(100)
			}
		})
	}
	// Each Sleep is one scheduled wake-up event; the eight processes
	// interleave through the queue exactly like worker cores do.
	b.ResetTimer()
	e.RunAll()
}

// benchEventLoopDepth measures one schedule + one dispatch per op on the
// pure event path while depth other events stay pending.
func benchEventLoopDepth(b *testing.B, depth int) {
	b.ReportAllocs()
	e := NewEnv(1)
	const chains = 8
	// span is one cycle past the last mill fire; the backlog below is
	// scheduled strictly after it so Run(span) fires only the mill.
	span := Time(b.N/chains+2) * 100
	remaining := b.N
	var tick [chains]func()
	for i := range tick {
		i := i
		tick[i] = func() {
			if remaining > 0 {
				remaining--
				e.After(100, tick[i])
			}
		}
	}
	for i := range tick {
		e.After(Time(i+1), tick[i])
	}
	rng := NewRNG(7)
	nothing := func() {}
	for i := 0; i < depth; i++ {
		var at Time
		if i%2 == 0 {
			at = span + 1 + Time(rng.Intn(1<<13)) // near horizon: NIC/link latencies
		} else {
			at = span + 1 + rng.Exp(Millis(5)) // far horizon: timers, write-backs
		}
		e.At(at, nothing)
	}
	b.ResetTimer()
	e.Run(span)
}

// BenchmarkEnvTimerEvents measures the pure event path: schedule and
// fire plain callbacks with no processes involved.
func BenchmarkEnvTimerEvents(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(10, fn)
		e.RunAll()
	}
}

// BenchmarkEnvProcSleep measures the park/resume handshake: a single
// process sleeping in a tight loop. One op = one Sleep (park + scheduled
// resume + event dispatch).
func BenchmarkEnvProcSleep(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	done := make(chan struct{})
	n := b.N
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(10)
		}
		close(done)
	})
	b.ResetTimer()
	e.RunAll()
	<-done
}

// BenchmarkEnvProcSpawn measures process creation and teardown inside
// one run: what a harness that spawns a process per operation pays (the
// assembled system spawns none). One op = one Go + body run +
// termination.
func BenchmarkEnvProcSpawn(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	body := func(p *Proc) { p.Sleep(1) }
	n := b.N
	e.Go("driver", func(p *Proc) {
		for i := 0; i < n; i++ {
			e.Go("u", body)
			p.Sleep(2)
		}
	})
	b.ResetTimer()
	e.RunAll()
	b.StopTimer()
	if e.LiveProcs() != 0 {
		b.Fatalf("leaked %d procs", e.LiveProcs())
	}
}

// BenchmarkEnvGatePingPong measures the synchronization-primitive path:
// two processes handing control back and forth through gates, the
// worker↔unithread handoff shape. One op = one half round trip.
func BenchmarkEnvGatePingPong(b *testing.B) {
	b.ReportAllocs()
	e := NewEnv(1)
	ga, gb := NewGate(e), NewGate(e)
	n := b.N
	e.Go("a", func(p *Proc) {
		for i := 0; i < n/2+1; i++ {
			gb.Wake()
			ga.Wait(p)
		}
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < n/2+1; i++ {
			gb.Wait(p)
			ga.Wake()
		}
	})
	b.ResetTimer()
	e.Run(Seconds(1000))
	b.StopTimer()
}
