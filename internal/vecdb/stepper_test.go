package vecdb

import (
	"fmt"
	"hash/fnv"
	"math"
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
		{name: "adios", mode: core.Adios, rps: 20_000},
		{name: "dilos", mode: core.DiLOS, rps: 10_000},
		// A query runs for hundreds of microseconds: its probes, one every
		// 32 vectors, find the 5 µs quantum spent over and over.
		{name: "probe-preemption", mode: core.DiLOSP, rps: 10_000, wantPreempts: true},
		{name: "ipi-preemption", mode: core.DiLOSP, rps: 10_000, wantPreempts: true,
			tune: func(c *core.Config) { c.Sched.PreemptIPI = true }},
		// Faults that stall for a frame (the reclaimer runs only once the
		// pool is empty) and for a QP slot.
		{name: "starved", mode: core.Adios, rps: 10_000, wantStalls: true,
			tune: func(c *core.Config) {
				c.Paging = paging.DefaultConfig(24 * paging.PageSize)
				c.Paging.Proactive = false
				c.RDMA.QPDepth = 2
			}},
		{name: "aborts", mode: core.Adios, rps: 20_000, wantAborts: true,
			tune: func(c *core.Config) { c.Faults = wr }},
	}
}

// formStats is the run's summary, every counter of its pinned row.
type formStats struct {
	digest                            uint64
	completed, aborts                 int64
	cpu, busyWait                     int64
	hits, faults, evictions           int64
	fetchWaits, allocStalls, preempts int64
}

// runForm drives the index through a whole core.System under tc and
// returns the run's summary and its pinned row: the summary and the
// SHA-256 of the trace.
func runForm(t *testing.T, tc formCase, bp *Blueprint) (formStats, string) {
	t.Helper()
	c := core.Preset(tc.mode, Footprint(bp.cfg)/5)
	c.Seed = 7
	if tc.tune != nil {
		tc.tune(&c)
	}
	sys := core.NewSystem(c)
	idx := bp.Instantiate(sys.Mgr, sys.Mem)
	idx.WarmCache()
	sys.StartApp(idx)
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
		if q, ok := req.Pkt.Payload.(*Query); ok { // nil on an aborted request
			for _, n := range q.Neighbors {
				put(uint64(n.ID))
				put(uint64(math.Float32bits(n.Dist)))
			}
		}
		st.digest = h.Sum64()
		st.preempts += int64(req.Preemptions)
	}
	res := sys.Run(idx, tc.rps, sim.Millis(1), sim.Millis(5))
	st.completed, st.aborts = res.Completed, res.Aborts
	st.cpu, st.busyWait = sys.Sched.CPUCycles(), sys.Sched.BusyWaitCycles()
	st.hits, st.faults = sys.Mgr.Hits.Value(), sys.Mgr.Faults.Value()
	st.evictions = sys.Mgr.Evictions.Value()
	st.fetchWaits, st.allocStalls = sys.Mgr.FetchWaits.Value(), sys.Mgr.AllocStalls.Value()
	if sw := sys.Env.KernelStats().Switches; sw != 0 {
		t.Fatalf("%d coroutine switches", sw)
	}
	return st, fmt.Sprintf("%+v trace=%s", st, steptest.TraceSum(rec.Events()))
}

// The stepper is the query's only form, and each row of
// testdata/stepper_digests.txt is what the direct-style body it replaced
// did under one policy — recorded from that body on the coroutine
// adapter, which ran it until the stepper had been proven to replay it
// exactly. The 136-byte records straddle pages one time in thirty. The
// stepper must reproduce every row: per-request timings and neighbours
// (an order-sensitive digest), every scheduler and paging counter, the
// trace's SHA-256.
func TestStepperMatchesReference(t *testing.T) {
	bp := NewBlueprint(smallConfig())
	for _, tc := range formCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			st, row := runForm(t, tc, bp)
			if st.completed < 20 || st.faults == 0 || st.evictions == 0 {
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
