package sim

// Proc is a simulated process: a body on a coroutine (Coro, coro.go) that
// the event loop itself resumes, and that may block on simulated time
// (Sleep) or on synchronization primitives (Gate); while it is blocked,
// other events and processes run. Nothing in an assembled system
// (core.System) is a process: every model loop and the scheduler's
// cores are tier-1 Tasks (task.go), and every request is steps of a
// worker core's machine. Procs remain for the harnesses that want a
// blocking caller with its own wake-ups — the benchmark rigs, package
// tests — and as the reference the kernel's own tests drive.
//
// The loop goroutine — whichever goroutine called Run — resumes a
// process, and a parking or terminating process returns control to it.
// Only the loop goroutine ever does: a process never resumes another
// process itself, which would nest the second inside the first instead
// of switching to it. A Proc is allocated per Go — nothing spawns one
// per request — while its coroutine comes from the pool (freeCoros).
//
// Direct handoff (the tier-2 fast path): before yielding, a parking
// process dispatches upcoming events itself (Env.dispatch, the same code
// the loop runs). A resume of the parking process returns from park with
// no switch at all (the Sleep and Gate.Wake→Wait shapes); a plain
// callback runs inline; a resume or start of another process is yielded
// to the loop, which switches to it without popping again — two
// coroutine switches. Only when the next event is past the run bound (or
// the queue drains) does the loop pop for itself. Dispatch order is
// bit-identical by construction: one function pops every event, only on
// different goroutines.
type Proc struct {
	env  *Env
	name string
	r    *Coro
	body func(*Proc) // pending body between Go and the start event
	done bool        // terminated: a stale resume trips switchTo's sanity check
}

// Go creates a process that will begin executing fn at the current
// simulated time (after already-scheduled events at this time).
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, body: fn}
	e.nProcs++
	e.seq++
	e.q.push(event{at: e.now, seq: e.seq, proc: p})
	return p
}

// switchTo transfers control from the loop goroutine to p — the start
// of a new process (first firing after Go) on a pooled or new coroutine,
// or the resumption of a parked one — and then to each process the
// yielding one names in turn, until one yields nil.
func (e *Env) switchTo(p *Proc) {
	for p != nil {
		if p.body != nil {
			p.r = e.takeCoro()
			p.r.proc = p
		} else if p.done {
			panic("sim: resuming terminated proc " + p.name)
		}
		e.stats.Switches++
		p, _ = p.r.resume()
	}
}

// Name returns the process's debug name.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.env.now }

// park hands control back to the event loop until some event resumes this
// process. The caller must have arranged for a wake-up first. See the
// type comment for the direct-handoff fast path taken before the
// coroutine actually yields.
func (p *Proc) park() {
	e := p.env
	e.stats.Parks++
	if q := e.dispatch(); q != p {
		p.r.suspend(q)
	}
}

// dispatch pops and dispatches events in (at, seq) order up to the run
// bound, running plain callbacks inline, until an event targets a
// process, and returns that process for the caller to switch to: the
// loop does, and so does a parking process unless the event is its own
// resume. It returns nil when the bound is reached, the queue drains or
// the run is stopped. Exactly one goroutine ever executes simulator
// code, so "event-loop context" holds for callbacks run from a process
// too.
func (e *Env) dispatch() *Proc {
	// ev is hoisted out of the loop so the manual popUntil inline below
	// costs no per-iteration zeroing on the levelled (cache-miss) path.
	var ev event
	for !e.stopped {
		// wheel.popUntil, manually inlined (it sits just past the
		// inliner's budget, and this loop runs once per event): a cache
		// hit is a branch and a copy; every other case — empty cache,
		// cached event past until, levelled events — is popSlow's.
		if e.q.hasNext && e.q.next.at <= e.until {
			ev = e.q.next
			e.q.hasNext = false
			e.q.count--
		} else {
			var ok bool
			if ev, ok = e.q.popSlow(e.until); !ok {
				break
			}
		}
		if e.checked {
			e.checkDispatch(ev.at, ev.seq)
		}
		e.now = ev.at
		if ev.proc == nil {
			ev.fn()
			continue
		}
		return ev.proc
	}
	return nil
}

// scheduleResume arranges for p to be resumed at time at. It is the
// building block for all wake-ups: primitives never resume a process
// inline (that would nest processes); they always go through an event.
// The event carries the process directly — no closure is allocated on
// this path, which every Sleep and Gate.Wake takes.
func (e *Env) scheduleResume(p *Proc, at Time) {
	if at < e.now {
		panic("sim: scheduling resume in the past for " + p.name)
	}
	e.seq++
	e.q.push(event{at: at, seq: e.seq, proc: p})
}

// Park blocks the process until some event resumes it via ScheduleResume.
// It is the extension point for custom synchronization primitives in
// other packages (QP slot waits, fault-completion waits): the caller must
// have registered itself somewhere a future event will find it.
func (p *Proc) Park() { p.park() }

// ScheduleResume arranges for a parked process to be resumed at time at.
// The companion of Park for building custom primitives.
func (e *Env) ScheduleResume(p *Proc, at Time) { e.scheduleResume(p, at) }

// Sleep blocks the process for d cycles of simulated time. In the system
// model, a worker or unithread sleeping represents the CPU core being
// busy for that long.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	e := p.env
	at := e.now + d
	if e.skipAhead(at) {
		return
	}
	e.scheduleResume(p, at)
	p.park()
}

// skipAhead is the clock-advance fast path for Proc.Sleep and for the
// task tier's Sleep and Yield: when
// every pending event is strictly later than the caller's wake time,
// the event loop would pop the caller's own resume next — the resume
// would carry the highest sequence number, so an already-pending event
// would have to beat `at` outright to run first. In that case just
// advance the clock and keep running, skipping the wheel push/pop and
// the park entirely. Relative order of pending events is untouched, so
// schedules are bit-identical with and without the fast path. Disabled
// in checked builds so the wheel and dispatch-order oracles observe
// every transition, and within a horizon-bounded Run a process never
// advances past `until` (it must park and stay parked, exactly as the
// slow path leaves it).
func (e *Env) skipAhead(at Time) bool {
	if e.checked || e.stopped || at > e.until || !e.q.peekBeyond(at) {
		return false
	}
	e.now = at
	e.stats.SkipAheads++
	return true
}

// releaseParked unwinds every parked process's coroutine and stops the
// pool. Called when a run finishes so that repeated simulations
// (benchmark sweeps) do not leak goroutines. The common
// nothing-to-release case — nothing ever suspended, no coroutine pooled —
// inlines into Run/RunAll; the unwind loops live in the slow half.
func (e *Env) releaseParked() {
	if e.checked {
		e.auditTeardown()
	}
	if e.suspended != nil || e.freeCoros != nil {
		e.releaseParkedSlow()
	}
}

// releaseParkedSlow stops every coroutine the environment still owns. A
// suspended body unwinds (abortSignal), its coroutine pushes itself on
// the free list and ends; stopping it a second time from that list, or
// stopping one whose coroutine a panic already ended, does nothing.
func (e *Env) releaseParkedSlow() {
	for e.suspended != nil {
		c := e.suspended
		e.unlinkSuspended(c)
		c.stop()
	}
	for c := e.freeCoros; c != nil; c = c.next {
		c.stop()
	}
	e.freeCoros = nil
}
