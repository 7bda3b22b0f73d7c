package sim

// Task is the kernel's execution primitive: a timer-driven state machine
// scheduled directly on the timing wheel. A task is just a callback the
// event loop invokes at the times the task arms itself for. Between
// firings its state lives in explicit fields, not on a stack of its own,
// so firing a task costs exactly one wheel dispatch: no goroutine, no
// switch, no allocation (the callback closure is built once at
// construction and reused for every firing). A Proc (proc.go) is a task
// whose callback resumes a coroutine.
//
// Every model loop runs as a task — the loadgen arrival loop, the paging
// reclaimer, NIC delivery and completion paths, and the scheduler's
// dispatcher and worker cores, whose cycle charges are Task.Sleep and
// which run every request as steps of their own state machine.
//
// A task is single-armed: at most one pending firing exists at a time,
// which is the natural shape of a self-rescheduling loop and keeps the
// primitive trivially deterministic — each FireAt is one event push with
// the next global seq.
type Task struct {
	env   *Env
	name  string
	fn    func()
	run   func() // cached wrapper pushed onto the wheel; never reallocated
	armed bool
}

// NewTask returns a task bound to env that invokes fn at each firing.
// The two closures this allocates are the task's only allocations, ever.
func NewTask(env *Env, name string, fn func()) *Task {
	t := &Task{env: env, name: name, fn: fn}
	t.run = func() {
		t.armed = false
		t.fn()
	}
	return t
}

// Name returns the task's debug name.
func (t *Task) Name() string { return t.name }

// Armed reports whether a firing is currently scheduled.
func (t *Task) Armed() bool { return t.armed }

// FireAt schedules the task to fire at absolute time at (after events
// already scheduled for that time). Arming an armed task is a bug in
// the state machine — it would mean two concurrent activations — and
// panics rather than silently reordering.
func (t *Task) FireAt(at Time) {
	if t.armed {
		panic("sim: task " + t.name + " is already armed")
	}
	t.armed = true
	t.env.At(at, t.run)
}

// FireAfter schedules the task to fire d cycles from now.
func (t *Task) FireAfter(d Time) { t.FireAt(t.env.now + d) }

// Sleep lets d cycles of simulated time pass before the task's next
// step. When nothing is pending at or before the wake time the clock
// advances inline (Env.skipAhead) and Sleep reports true: the callback
// carries on. Otherwise the task is armed for the wake time and Sleep
// reports false: the callback must record where to continue and return;
// it fires again at the wake time.
func (t *Task) Sleep(d Time) bool {
	if d <= 0 {
		return true
	}
	return t.sleepUntil(t.env.now + d)
}

// Yield lets every event already scheduled at the current time run
// first: the task continues behind them. Result as for Sleep. The
// scheduler brackets each on-core segment of a request with Yields,
// which fixes where a request's execution crosses the event queue.
func (t *Task) Yield() bool { return t.sleepUntil(t.env.now) }

func (t *Task) sleepUntil(at Time) bool {
	if t.env.skipAhead(at) {
		return true
	}
	t.FireAt(at)
	return false
}

// skipAhead is the clock-advance fast path for Task.Sleep and Yield (and
// so Proc.Sleep): when every pending event is strictly later than the
// caller's wake time, the event loop would pop the caller's own firing
// next — it would carry the highest sequence number, so an
// already-pending event would have to beat `at` outright to run first.
// In that case just advance the clock and keep running, skipping the
// wheel push/pop entirely. Relative order of pending events is
// untouched, so schedules are bit-identical with and without the fast
// path. Checked runs take it too: a skip stands in for the dispatch of
// the caller's own firing, so it is recorded for sim/dispatch-order as
// (at, e.seq). Every pending event has a seq no larger than e.seq and,
// by peekBeyond, a time later than at, so the next dispatch is out of
// order exactly when peekBeyond was wrong; events pushed after the skip
// carry larger seqs. (The skip itself is not tested: a Yield repeats the
// last dispatch's time.) Within a horizon-bounded Run a caller never
// advances past `until` (it must stay armed, exactly as the slow path
// leaves it).
func (e *Env) skipAhead(at Time) bool {
	if at > e.until || !e.q.peekBeyond(at) {
		return false
	}
	if e.checked {
		e.lastAt, e.lastSeq = at, e.seq
	}
	e.now = at
	e.stats.SkipAheads++
	return true
}
