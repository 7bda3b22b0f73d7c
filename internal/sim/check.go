package sim

import "repro/internal/simcheck"

// This file holds the simulator-kernel invariant oracles (see package
// simcheck). All of them are observational: they never draw randomness
// and never schedule events, and the kernel takes the same paths armed
// or not, skip-ahead included, so a checked run pushes and dispatches
// the identical event sequence as an unchecked one.
//
// Oracles here:
//
//	sim/dispatch-order  events leave the wheel in strict (at, seq) order,
//	                    and none was due at a skip-ahead (Env.skipAhead)
//	sim/lost-wakeup     every parked proc's task is armed or registered
//	                    in a waiter slot at teardown
//	sim/wheel-count     wheel count matches the events actually filed
//	sim/wheel-bitmap    occupancy bitmaps agree with bucket contents
//	sim/wheel-spare     recycled bucket arrays are empty and unshared

// checkDispatch verifies monotone (at, seq) dispatch. The wheel's
// ordering argument (wheel.go) says dispatch is bit-identical to the
// retired heap's order; this oracle re-proves it on every event of a
// checked run, in Env.loop, against the last dispatch or skip-ahead.
func (e *Env) checkDispatch(at Time, seq uint64) {
	if at < e.lastAt || (at == e.lastAt && seq <= e.lastSeq) {
		simcheck.Fail(simcheck.New("sim/dispatch-order",
			"event dispatched out of (at, seq) order").
			With("at", int64(at)).With("seq", seq).
			With("prevAt", int64(e.lastAt)).With("prevSeq", e.lastSeq))
	}
	e.lastAt, e.lastSeq = at, seq
}

// MarkBlocked records that w is waiting on the named primitive (a gate,
// a QP slot list, the frame-waiter list, ...). Primitives that hold
// waiter lists call it when they register a task; the matching wake path
// calls MarkUnblocked. No-ops unless the environment was built with
// oracles on, so unchecked runs pay one branch.
func (e *Env) MarkBlocked(w *Task, where string) {
	if e.checked {
		e.blocked[w] = where
	}
}

// MarkUnblocked removes w from the blocked-waiter registry; call it
// when w is armed (it is then reachable from the wheel instead).
func (e *Env) MarkUnblocked(w *Task) {
	if e.checked {
		delete(e.blocked, w)
	}
}

// auditTeardown is the no-lost-wakeup oracle, run when a simulation
// finishes (Run/RunAll) before parked processes are unwound: a process
// still parked at teardown must be waiting somewhere a future event
// could find it — its task armed, or registered in a waiter slot. A
// parked process with neither is a lost wakeup: it would have hung a
// real system. The registry is not cleared here — a task may stay
// blocked across back-to-back Run calls on one environment.
func (e *Env) auditTeardown() {
	for p := e.procs; p != nil; p = p.next {
		if _, ok := e.blocked[p.task]; ok || p.task.armed {
			continue
		}
		simcheck.Fail(simcheck.New("sim/lost-wakeup",
			"parked process unreachable from any waiter slot or pending event").
			With("proc", p.task.name).With("now", int64(e.now)))
	}
	e.CheckWheel()
}

// CheckWheel audits the timing wheel's structure: the pending count
// equals the events actually filed (cache slot + bucket entries, net of
// the partially-drained head bucket), every occupancy bit agrees with
// its bucket, and every summary bit agrees with its occupancy word. The
// spare list holds only empty arrays, none of them also a bucket's, and
// no upper-level bucket is empty but still holds an array.
// Run from auditTeardown; exported so tests can call it mid-run.
func (e *Env) CheckWheel() {
	w := &e.q
	spare := make(map[*event]bool, len(w.spare))
	for _, s := range w.spare {
		if len(s) != 0 || spare[&s[:1][0]] {
			simcheck.Fail(simcheck.New("sim/wheel-spare",
				"spare bucket array is not empty or is listed twice").
				With("len", len(s)))
		}
		spare[&s[:1][0]] = true
	}
	n := 0
	if w.hasNext {
		n++
	}
	for l := range w.levels {
		lv := &w.levels[l]
		for bi, bkt := range lv.buckets {
			if cap(bkt) > 0 && spare[&bkt[:1][0]] {
				simcheck.Fail(simcheck.New("sim/wheel-spare",
					"bucket shares its array with the spare list").
					With("level", l).With("bucket", bi).With("len", len(bkt)))
			}
			if l > 0 && len(bkt) == 0 && cap(bkt) > 0 {
				simcheck.Fail(simcheck.New("sim/wheel-spare",
					"empty upper-level bucket still holds an array").
					With("level", l).With("bucket", bi))
			}
			pending := len(bkt)
			if l == 0 && bi == w.headIdx && w.head > 0 {
				pending -= w.head
			}
			n += pending
			occ := lv.occ[bi>>6]&(1<<(uint(bi)&63)) != 0
			if (pending > 0) != occ {
				simcheck.Fail(simcheck.New("sim/wheel-bitmap",
					"occupancy bit disagrees with bucket contents").
					With("level", l).With("bucket", bi).
					With("pending", pending).With("occ", occ))
			}
		}
		for wi, word := range lv.occ {
			if (word != 0) != (lv.sum&(1<<uint(wi)) != 0) {
				simcheck.Fail(simcheck.New("sim/wheel-bitmap",
					"summary bit disagrees with occupancy word").
					With("level", l).With("word", wi))
			}
		}
	}
	if n != w.count {
		simcheck.Fail(simcheck.New("sim/wheel-count",
			"pending-event count disagrees with filed events").
			With("count", w.count).With("filed", n))
	}
}
