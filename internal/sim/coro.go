package sim

import "iter"

// Coro is the coroutine a process runs on: its body runs on a runtime
// coroutine (iter.Pull), which the event loop resumes and which suspends
// itself by parking (proc.go), strictly one side executing at a time.
// Control moves by a direct goroutine-to-goroutine switch that never
// enters the runtime scheduler, and a panic in the body unwinds through
// the resume into the event loop like any other.
//
// Coroutines are pooled per Env: when a process's body returns, its
// coroutine goes back on the free list and the next process start reuses
// it. Every suspended coroutine is on the environment's suspended list,
// and the end of a run stops them all and the pool (releaseParked): no
// parked process outlives its simulation.
type Coro struct {
	env    *Env
	resume func() (*Proc, bool) // resumer → body; returns what the body yielded
	stop   func()               // make the pending yield return false
	yield  func(*Proc) bool     // body → resumer, naming the process to switch to (or nil)
	proc   *Proc                // what the next resume of a pooled coroutine starts

	// Suspended-list links; next doubles as the free-list link.
	prev, next *Coro
}

// abortSignal is panicked inside a suspended body when the environment
// tears down, unwinding its stack. Bodies must not suspend again from
// deferred functions.
type abortSignal struct{}

// suspend yields q to the resumer, keeping the coroutine on the
// suspended list meanwhile.
func (c *Coro) suspend(q *Proc) {
	e := c.env
	c.next = e.suspended
	if e.suspended != nil {
		e.suspended.prev = c
	}
	e.suspended = c
	if !c.yield(q) {
		panic(abortSignal{}) // teardown unlinked c before stopping it
	}
	e.unlinkSuspended(c)
}

// unlinkSuspended removes c, which must be on it, from the suspended list.
func (e *Env) unlinkSuspended(c *Coro) {
	if c.prev != nil {
		c.prev.next = c.next
	} else {
		e.suspended = c.next
	}
	if c.next != nil {
		c.next.prev = c.prev
	}
	c.prev, c.next = nil, nil
}

// takeCoro pops a pooled coroutine or builds one, which runs bodies until
// stop makes its yield return false and sits on the free list between
// them (pushed while the resumer is suspended in resume: no locking).
func (e *Env) takeCoro() *Coro {
	if c := e.freeCoros; c != nil {
		e.freeCoros, c.next = c.next, nil
		return c
	}
	c := &Coro{env: e}
	c.resume, c.stop = iter.Pull(func(yield func(*Proc) bool) {
		c.yield = yield
		for {
			c.run()
			e.nProcs--
			c.proc.done = true
			c.proc = nil
			c.next = e.freeCoros
			e.freeCoros = c
			if !yield(nil) {
				return
			}
		}
	})
	return c
}

// run executes one process body, converting the teardown abort into a
// normal return so the coroutine ends through its loop. Any other panic
// continues into the coroutine, which hands it to the resume (or stop)
// that switched here: it reaches Run's caller with its value unchanged.
func (c *Coro) run() {
	defer func() {
		if rec := recover(); rec != nil {
			if _, ok := rec.(abortSignal); !ok {
				panic(rec)
			}
		}
	}()
	p := c.proc
	fn := p.body
	p.body = nil
	fn(p)
}
