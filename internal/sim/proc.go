package sim

import "iter"

// Proc is a simulated process: a Task (task.go) whose callback starts or
// resumes a body running on a coroutine of its own (iter.Pull). The body
// may block mid-function on simulated time (Sleep) or on a Gate, and it
// waits exactly as a task does — it arms its task or registers it with
// the primitive — and then parks, yielding to the event loop until the
// task fires. While it is parked, other events and processes run.
//
// Nothing in an assembled system (core.System) is a process: every model
// loop and the scheduler's cores are tasks, and every request is steps of
// a worker core's machine. Procs remain for the harnesses that want a
// blocking caller — the benchmark rigs, package tests.
//
// Only the loop goroutine — whichever goroutine called Run — resumes a
// process, by firing its task, and a parking or terminating process
// returns control to it: a process never resumes another itself, which
// would nest the second inside the first. A process's coroutine exists
// from its first firing to the end of its body.
type Proc struct {
	task *Task
	body func(*Proc) // pending body between Go and the first firing
	done bool        // terminated: a stale firing panics in step

	resume func() (struct{}, bool) // loop → body
	stop   func()                  // make the pending yield return false
	yield  func(struct{}) bool     // body → loop

	prev, next *Proc // Env.procs links while the coroutine exists
}

// abortSignal is panicked inside a parked body when the environment
// tears down, unwinding its stack. Bodies must not park again from
// deferred functions.
type abortSignal struct{}

// Go creates a process that will begin executing fn at the current
// simulated time (after already-scheduled events at this time).
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{body: fn}
	p.task = NewTask(e, name, p.step)
	e.nProcs++
	p.task.FireAt(e.now)
	return p
}

// step is p's task callback: it starts the body on the first firing and
// resumes it on every later one, and returns when the body parks or ends.
func (p *Proc) step() {
	if p.body != nil {
		p.start()
	} else if p.done {
		panic("sim: resuming terminated proc " + p.task.name)
	}
	p.task.env.stats.Switches++
	p.resume()
}

// start builds p's coroutine. A panic in the body other than the
// teardown abort continues into the coroutine, which hands it to the
// resume (or stop) that switched there: it reaches Run's caller with its
// value unchanged.
func (p *Proc) start() {
	e, body := p.task.env, p.body
	p.body = nil
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.next = e.procs
		if e.procs != nil {
			e.procs.prev = p
		}
		e.procs = p
		defer p.exit()
		body(p)
	})
}

// exit ends p's body, however it ended: p leaves the environment's list
// and the teardown abort, if that is what ended it, stops here.
func (p *Proc) exit() {
	e := p.task.env
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.procs = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
	p.done = true
	e.nProcs--
	if rec := recover(); rec != nil {
		if _, ok := rec.(abortSignal); !ok {
			panic(rec)
		}
	}
}

// releaseProcs stops every process coroutine: a parked body unwinds
// (abortSignal) and its exit takes it off the list.
func (e *Env) releaseProcs() {
	for e.procs != nil {
		e.procs.stop()
	}
}

// Name returns the process's debug name.
func (p *Proc) Name() string { return p.task.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.task.env }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.task.env.now }

// Task returns the task that resumes p. A primitive in another package
// registers it, where a future event will arm it, before calling Park.
func (p *Proc) Task() *Task { return p.task }

// Park yields to the event loop until p's task fires. The caller must
// have armed the task or registered it where a future event will arm it.
func (p *Proc) Park() {
	p.task.env.stats.Parks++
	if !p.yield(struct{}{}) {
		panic(abortSignal{})
	}
}

// Sleep blocks the process for d cycles of simulated time: Task.Sleep,
// parking when the task was armed rather than the clock advanced inline.
func (p *Proc) Sleep(d Time) {
	if !p.task.Sleep(d) {
		p.Park()
	}
}
