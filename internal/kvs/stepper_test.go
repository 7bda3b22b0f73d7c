package kvs

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/paging"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload/steptest"
)

// formCase is one pinned configuration: a preset, what the case changes
// in it, and the offered load.
type formCase struct {
	name string
	mode core.Mode
	tune func(*core.Config)
	rps  float64
	// what the run must have exercised for the case to mean anything
	wantPreempts, wantStalls, wantAborts bool
}

// formCases are the policies and stall paths the stepper is pinned under.
func formCases(t *testing.T) []formCase {
	wr, err := faults.ParseSpec("wr=0.3")
	if err != nil {
		t.Fatal(err)
	}
	return []formCase{
		{name: "adios", mode: core.Adios, rps: 300_000},
		{name: "dilos", mode: core.DiLOS, rps: 150_000},
		// A quantum short enough that the probe of a request's second slot
		// (or its first, after a fault) finds it spent.
		{name: "probe-preemption", mode: core.DiLOSP, rps: 150_000, wantPreempts: true,
			tune: func(c *core.Config) { c.Sched.Quantum = 500 }},
		{name: "ipi-preemption", mode: core.DiLOSP, rps: 150_000, wantPreempts: true,
			tune: func(c *core.Config) { c.Sched.PreemptIPI, c.Sched.Quantum = true, 300 }},
		// Faults that stall for a frame (the reclaimer runs only once the
		// pool is empty) and for a QP slot.
		{name: "starved", mode: core.Adios, rps: 60_000, wantStalls: true,
			tune: func(c *core.Config) {
				c.Paging = paging.DefaultConfig(24 * paging.PageSize)
				c.Paging.Proactive = false
				c.RDMA.QPDepth = 2
			}},
		{name: "aborts", mode: core.Adios, rps: 200_000, wantAborts: true,
			tune: func(c *core.Config) { c.Faults = wr }},
	}
}

// formStats is the run's summary, every counter of its pinned row.
type formStats struct {
	digest                            uint64
	completed, aborts                 int64
	cpu, busyWait                     int64
	hits, faults, evictions, dirtyWB  int64
	fetchWaits, allocStalls, preempts int64
	misses, mismatches                int64
}

// runForm drives cfg's store through a whole core.System under tc and
// returns the run's summary and its pinned row: the summary and the
// SHA-256 of the trace.
func runForm(t *testing.T, tc formCase, cfg Config) (formStats, string) {
	t.Helper()
	c := core.Preset(tc.mode, Footprint(cfg)/5)
	c.Seed = 7
	if tc.tune != nil {
		tc.tune(&c)
	}
	sys := core.NewSystem(c)
	s := New(sys.Mgr, sys.Mem, cfg)
	s.WarmCache()
	sys.StartApp(s)
	rec := trace.New(0)
	sys.Sched.Trace = rec

	var st formStats
	sys.Sched.OnComplete = func(req *sched.Request) {
		h := fnv.New64a()
		var b [8]byte
		put := func(v uint64) {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
		put(st.digest)
		put(req.Pkt.ID)
		put(uint64(req.Started))
		put(uint64(req.Finished))
		put(uint64(req.QueueWait))
		put(uint64(req.RDMAWait))
		put(uint64(req.BusyWait))
		put(uint64(req.CPU))
		put(uint64(req.Faults))
		put(uint64(req.Preemptions))
		put(uint64(req.Pkt.Size))
		if m, ok := req.Pkt.Payload.(*Msg); ok { // nil on an aborted request
			put(m.Key)
			put(m.Digest)
			if m.Found {
				put(1)
			}
		}
		st.digest = h.Sum64()
		st.preempts += int64(req.Preemptions)
	}
	res := sys.Run(s, tc.rps, sim.Millis(1), sim.Millis(5))
	st.completed, st.aborts = res.Completed, res.Aborts
	st.cpu, st.busyWait = sys.Sched.CPUCycles(), sys.Sched.BusyWaitCycles()
	st.hits, st.faults = sys.Mgr.Hits.Value(), sys.Mgr.Faults.Value()
	st.evictions, st.dirtyWB = sys.Mgr.Evictions.Value(), sys.Mgr.DirtyWritebacks.Value()
	st.fetchWaits, st.allocStalls = sys.Mgr.FetchWaits.Value(), sys.Mgr.AllocStalls.Value()
	st.misses, st.mismatches = s.Misses.Value(), s.Mismatches.Value()
	if st.mismatches != 0 || st.misses != 0 {
		t.Fatalf("mismatches=%d misses=%d", st.mismatches, st.misses)
	}
	if sw := sys.Env.KernelStats().Switches; sw != 0 {
		t.Fatalf("%d coroutine switches", sw)
	}
	return st, fmt.Sprintf("%+v trace=%s", st, steptest.TraceSum(rec.Events()))
}

// The stepper is the store's only request logic, and each row of
// testdata/stepper_digests.txt is what the direct-style bodies it
// replaced did under one policy — recorded from those bodies on the
// coroutine adapter, which ran them until the stepper had been proven to
// replay them exactly. Half the requests are SETs, which no experiment
// issues, and the 600-byte values straddle pages one time in seven, as
// the 72-byte slots do on their own. The stepper must reproduce every
// row: per-request timings and answers (an order-sensitive digest), every
// scheduler and paging counter, the trace's SHA-256.
func TestStepperMatchesReference(t *testing.T) {
	cfg := DefaultConfig(20_000, 600)
	cfg.GetRatio = 0.5
	for _, tc := range formCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			st, row := runForm(t, tc, cfg)
			if st.completed < 200 || st.faults == 0 || st.evictions == 0 || st.dirtyWB == 0 {
				t.Fatalf("workload too tame to mean anything: %+v", st)
			}
			if tc.wantPreempts != (st.preempts > 0) || tc.wantAborts != (st.aborts > 0) ||
				tc.wantStalls && st.allocStalls == 0 {
				t.Fatalf("case did not exercise what it is for: preempts=%d aborts=%d frame stalls=%d",
					st.preempts, st.aborts, st.allocStalls)
			}
			steptest.Pinned(t, tc.name, row)
		})
	}
}
