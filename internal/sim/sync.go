package sim

// Gate is a single-waiter wake-up point with binary-semaphore semantics:
// a Wake that arrives while nobody waits is remembered (once) and
// consumed by the next Arm or Wait. Workers wait on their gate for new
// requests or fetch completions; the dispatcher waits on its gate for
// arrivals. The waiter is a task; a Proc waits through its own.
type Gate struct {
	env     *Env
	waiter  *Task
	pending bool
}

// NewGate returns a gate bound to env.
func NewGate(env *Env) *Gate { return &Gate{env: env} }

// Wait blocks p until the gate is woken. If a wake is already pending it
// is consumed and Wait returns immediately (in zero simulated time).
func (g *Gate) Wait(p *Proc) {
	if !g.Arm(p.task) {
		p.Park()
	}
}

// Arm consumes a pending wake and reports true: the task proceeds
// inline, in zero simulated time. Otherwise the task is registered as
// the gate's waiter — a later Wake arms it — and Arm reports false: the
// task's callback must return and resume from its next state when it
// fires.
func (g *Gate) Arm(t *Task) bool {
	if g.pending {
		g.pending = false
		return true
	}
	if g.waiter != nil {
		panic("sim: gate already has a waiter (" + g.waiter.name + ")")
	}
	g.waiter = t
	g.env.MarkBlocked(t, "gate")
	return false
}

// Wake arms the waiter (to fire at the current time, after
// already-scheduled events) or, if none waits, leaves a pending wake.
// Safe to call from event, process, and task context alike.
func (g *Gate) Wake() {
	if g.waiter == nil {
		g.pending = true
		return
	}
	t := g.waiter
	g.waiter = nil
	g.env.MarkUnblocked(t)
	t.FireAt(g.env.now)
}

// Waiting reports whether a task or process is currently blocked on the
// gate.
func (g *Gate) Waiting() bool { return g.waiter != nil }
