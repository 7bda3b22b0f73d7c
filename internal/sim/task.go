package sim

// Task is the tier-1 execution primitive: a timer-driven state machine
// scheduled directly on the timing wheel. Where a Proc is a coroutine
// that may block mid-function (Sleep, Gate.Wait) — costing a real
// stack switch per simulated context switch — a Task is just a
// callback the event loop invokes at the times the task arms itself
// for. Between firings its state lives in explicit fields, not on a
// stack of its own, so firing a task costs exactly one wheel dispatch:
// no goroutine, no switch, no allocation (the callback closure is
// built once at construction and reused for every firing).
//
// Every model loop runs as a task — the loadgen arrival loop, the paging
// reclaimer, NIC delivery and completion paths, and the scheduler's
// dispatcher and worker cores, whose cycle charges are Task.Sleep and
// which run every request as steps of their own state machine.
//
// A task is single-armed: at most one pending firing exists at a time,
// which is the natural shape of a self-rescheduling loop and keeps the
// primitive trivially deterministic — each FireAt is one event push with
// the next global seq, exactly like the proc resume it replaces.
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

// Env returns the owning environment.
func (t *Task) Env() *Env { return t.env }

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

// Sleep is Proc.Sleep for the task tier: d cycles of simulated time
// pass before the task's next step. When nothing is pending at or before
// the wake time the clock advances inline (Env.skipAhead, the same test
// Proc.Sleep makes) and Sleep reports true: the callback carries on.
// Otherwise the task is armed for the wake time — the one wheel push a
// sleeping proc's resume would have been, so (at, seq) order is the
// same — and Sleep reports false: the callback must record where to
// continue and return; it fires again at the wake time.
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

// Waiter is the common face of the two execution tiers for wake-up
// points: something that can be scheduled to continue at a given time.
// A *Proc continues by having its goroutine resumed; a *Task by being
// armed to fire. Synchronization primitives (Gate, QP slot waits) store
// a Waiter so both tiers can block on them; the set of implementations
// is closed.
type Waiter interface {
	wakeAt(e *Env, at Time)
	waiterName() string
}

func (p *Proc) wakeAt(e *Env, at Time) { e.scheduleResume(p, at) }
func (p *Proc) waiterName() string     { return p.name }

func (t *Task) wakeAt(e *Env, at Time) { t.FireAt(at) }
func (t *Task) waiterName() string     { return t.name }

// Wake schedules w — either tier — to continue at time at. It is the
// Waiter-typed counterpart of ScheduleResume for building primitives
// outside this package.
func (e *Env) Wake(w Waiter, at Time) { w.wakeAt(e, at) }
