package core

import (
	"repro/internal/simcheck"
	"repro/internal/stats"
)

// Audit runs the end-of-run global oracles over a finished run: the
// structural sweeps each subsystem exports (paging invariants — the
// owner table's and the re-home engines' included — memnode capacity,
// wheel bitmaps, scheduler-core liveness), repair convergence,
// histogram ledgers, and
// the request conservation identity. The seed-swarm explorer calls it
// after every scenario; tests can call it after any Run.
//
// strict enables the exact conservation identity
//
//	Sent == Completed + Drops
//
// (aborted requests still complete — with an error response — so
// Aborts is a subset of Completed, not a third bucket). The identity
// only holds when the run fully drains: the load must be modest enough
// that the 50 ms post-window drain empties every queue, and a
// permanently crashed node with replicas == 1 keeps its blast radius
// in flight forever. Callers that can't guarantee drain pass strict =
// false and still get the one-sided check (accounting can never exceed
// what was sent — over-accounting means an event was double-counted).
func (sys *System) Audit(res RunResult, strict bool) []error {
	var errs []error
	add := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	add(collect(func() error { return sys.Mem.CheckAllocation() }))
	add(collect(func() error { return sys.Mgr.CheckInvariants() }))
	if sys.Repair != nil && sys.Repair.Pending() == 0 {
		add(collect(func() error { return sys.Mgr.CheckReplication() }))
	}
	add(collect(func() error { sys.Env.CheckWheel(); return nil }))
	if sys.Sched != nil {
		add(sys.Sched.CheckLiveness())
	}
	if res.Gen != nil {
		sent := res.Gen.Sent.Value()
		acct := res.Completed + res.Drops
		if acct > sent {
			add(simcheck.New("core/over-account",
				"more requests accounted for than were ever sent").
				With("sent", sent).With("completed", res.Completed).
				With("dropped", res.Drops))
		} else if strict {
			add(stats.Reconcile("requests", sent, map[string]int64{
				"completed": res.Completed,
				"dropped":   res.Drops,
			}))
		}
		if res.Aborts > res.Completed {
			add(simcheck.New("core/abort-count",
				"more aborts than completed requests (aborts are a subset)").
				With("aborted", res.Aborts).With("completed", res.Completed))
		}
		add(collect(func() error { return res.Gen.E2E.Check() }))
	}
	if sys.Repair != nil {
		add(collect(func() error { return sys.Repair.RepairLat.Check() }))
	}
	if sys.Migr != nil {
		add(collect(func() error { return sys.Migr.MigrLat.Check() }))
	}
	return errs
}

// collect converts a panicking oracle (simcheck.Fail) into a returned
// error; non-violation panics propagate.
func collect(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			v, ok := simcheck.AsViolation(r)
			if !ok {
				panic(r)
			}
			err = v
		}
	}()
	return f()
}
