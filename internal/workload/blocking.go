package workload

import (
	"repro/internal/paging"
	"repro/internal/sim"
)

// Blocking runs a direct-style Handler under the step contract: it
// implements StepHandler by resuming a coroutine that carries the
// handler's stack, until the handler next needs simulated time. Each Ctx
// method that takes time is the blocking face of one StepStatus — it
// records what the handler needs and suspends the coroutine, Step
// returns that to the scheduler, and the next Step resumes the handler
// where it stopped. The adapter pushes no event and charges no cycle of
// its own: the carrying core does both, exactly as for a native stepper,
// so the form of a handler changes the host's work and not the simulated
// schedule. A compute charge that only advances the clock and a probe
// that is free stay on the coroutine — no switch at all.
//
// The coroutine is the kernel's pooled sim.Coro, taken when a handler
// starts and back in the pool when it returns; the environment's
// teardown unwinds a handler the run's horizon cut mid-request. Records
// are recycled here, so steady state allocates nothing.
type Blocking struct {
	env     *sim.Env
	handler Handler
	calls   []*blockingCall // by slot; StepFrame.W[0] names a request's slot
	free    []*blockingCall
}

// NewBlocking adapts h to the step contract on env's coroutines.
func NewBlocking(env *sim.Env, h Handler) *Blocking {
	return &Blocking{env: env, handler: h}
}

// blockingCall is one request in flight: the Ctx its handler runs under
// — the carrying core's StepCtx, with the methods that take simulated
// time replaced by their blocking faces — and what the handler last
// asked of the scheduler.
type blockingCall struct {
	StepCtx
	payload any

	b    *Blocking
	slot uint64
	run  func()    // bound body, created once
	co   *sim.Coro // nil before the handler starts and after it returns

	st        StepStatus // why the handler suspended
	cycles    sim.Time   // with StepCompute
	resp      any        // the handler's return values
	respBytes int
	ferr      error // set by Abort: WaitPage re-raises it
}

// Begin implements StepHandler: take a record; the handler starts at the
// first Step.
func (b *Blocking) Begin(f *StepFrame, payload any) {
	var c *blockingCall
	if n := len(b.free); n > 0 {
		c = b.free[n-1]
		b.free = b.free[:n-1]
	} else {
		c = &blockingCall{b: b, slot: uint64(len(b.calls))}
		c.run = c.body
		b.calls = append(b.calls, c)
	}
	f.W[0] = c.slot
}

// Step implements StepHandler: run the handler to its next need.
func (b *Blocking) Step(ctx StepCtx, f *StepFrame, payload any) (any, int, sim.Time, StepStatus) {
	c := b.calls[f.W[0]]
	if c.co == nil {
		c.StepCtx, c.payload = ctx, payload
		c.co = b.env.Coro(c.run)
	}
	return c.resume()
}

// Abort implements StepHandler: the handler is suspended in WaitPage,
// which panics with err, so its deferred functions run (a lock holder
// releases its lock) before the coroutine goes back to the pool. They
// must not need simulated time: the request is over, and nobody would
// resume a handler that suspended again.
func (b *Blocking) Abort(f *StepFrame, err error) {
	c := b.calls[f.W[0]]
	c.ferr = err
	if _, _, _, st := c.resume(); st != StepDone {
		panic("workload: handler suspended while unwinding an abandoned fetch")
	}
}

func (c *blockingCall) resume() (any, int, sim.Time, StepStatus) {
	c.co.Resume()
	if c.co != nil {
		return nil, 0, c.cycles, c.st
	}
	resp := c.resp
	c.StepCtx, c.payload, c.resp = nil, nil, nil
	c.b.free = append(c.b.free, c)
	return resp, c.respBytes, 0, StepDone
}

// body is the coroutine's body: the handler, start to finish. A
// *FetchError panic (raised by WaitPage after Abort) ends it quietly —
// the scheduler fails the request; any other panic, the teardown's
// included, continues to the resumer, and the dead coroutine stays in co
// so that a later Step fails loudly.
func (c *blockingCall) body() {
	defer c.ended()
	c.resp, c.respBytes = c.b.handler(c, c.payload)
}

func (c *blockingCall) ended() {
	r := recover()
	if _, abandoned := r.(*paging.FetchError); r != nil && !abandoned {
		panic(r)
	}
	c.co = nil
}

// suspend hands st to the scheduler and returns once it has met it.
func (c *blockingCall) suspend(st StepStatus) {
	c.st = st
	c.co.Suspend()
}

// Compute implements Ctx.
func (c *blockingCall) Compute(cycles sim.Time) {
	if cycles <= 0 || c.Charge(cycles) {
		return
	}
	c.cycles = cycles
	c.suspend(StepCompute)
}

// Probe implements Ctx.
func (c *blockingCall) Probe() {
	if !c.ProbeFree() {
		c.suspend(StepProbe)
	}
}

// WaitPage implements paging.Thread.
func (c *blockingCall) WaitPage(s *paging.Space, vpn int64) {
	c.Fault(s, vpn)
	c.suspend(StepFault)
	if err := c.ferr; err != nil {
		c.ferr = nil
		panic(err)
	}
}

// Block implements Ctx.
func (c *blockingCall) Block(enqueue func(wake func())) {
	c.StepCtx.Block(enqueue)
	c.suspend(StepBlock)
}
