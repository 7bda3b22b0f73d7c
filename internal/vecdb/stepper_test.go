package vecdb

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/paging"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// formCase is one configuration of the form differential: a preset, what
// the case changes in it, and the offered load.
type formCase struct {
	name string
	mode core.Mode
	tune func(*core.Config)
	rps  float64
	// what the run must have exercised for the case to mean anything
	wantPreempts, wantStalls, wantAborts bool
}

// formCases are the policies and stall paths a stepper must replay its
// direct-style reference under.
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

// formStats is everything the two forms must agree on.
type formStats struct {
	digest                            uint64
	completed, aborts                 int64
	cpu, busyWait                     int64
	hits, faults, evictions           int64
	fetchWaits, allocStalls, preempts int64
	events                            []trace.Event
	switches                          int64
}

// runForm drives the index on one form of its request logic — the
// stepper, or the retired body on workload.Blocking.
func runForm(t *testing.T, tc formCase, bp *Blueprint, native bool) formStats {
	t.Helper()
	c := core.Preset(tc.mode, Footprint(bp.cfg)/5)
	c.Seed = 7
	if tc.tune != nil {
		tc.tune(&c)
	}
	sys := core.NewSystem(c)
	idx := bp.Instantiate(sys.Mgr, sys.Mem)
	idx.WarmCache()
	if native {
		sys.StartApp(idx)
	} else {
		sys.Start(idx.referenceHandler())
	}
	if sys.Sched.FlatTier() != native {
		t.Fatalf("FlatTier() = %v with native = %v", sys.Sched.FlatTier(), native)
	}
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
		var answer []Neighbor // nil on an aborted request
		switch r := req.Pkt.Payload.(type) {
		case *Query:
			answer = r.Neighbors
		case Result:
			answer = r.Neighbors
		}
		for _, n := range answer {
			put(uint64(n.ID))
			put(uint64(math.Float32bits(n.Dist)))
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
	st.events = rec.Events()
	st.switches = sys.Env.KernelStats().Switches
	return st
}

// The stepper is the query's only form; what it replaced is the reference
// it must replay exactly. Under every policy the step machine implements
// — 136-byte records, so one in thirty straddles pages — the native
// stepper and the retired body on workload.Blocking must produce the
// identical run: per-request timings and neighbours (order-sensitive
// digest), every scheduler and paging counter, the full trace. Only the
// host's work differs — the stepper never switches to a coroutine, where
// the reference switches for every vector it cannot skip ahead over.
func TestStepperMatchesReference(t *testing.T) {
	bp := NewBlueprint(smallConfig())
	for _, tc := range formCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ref := runForm(t, tc, bp, false)
			native := runForm(t, tc, bp, true)
			if ref.completed < 20 || ref.faults == 0 || ref.evictions == 0 {
				t.Fatalf("workload too tame to differentiate: %+v", ref)
			}
			if tc.wantPreempts != (ref.preempts > 0) || tc.wantAborts != (ref.aborts > 0) ||
				tc.wantStalls && ref.allocStalls == 0 {
				t.Fatalf("case did not exercise what it is for: preempts=%d aborts=%d frame stalls=%d",
					ref.preempts, ref.aborts, ref.allocStalls)
			}
			if native.switches != 0 || ref.switches < ref.completed {
				t.Fatalf("coroutine switches: native %d (want 0), reference %d (want one per request at least)",
					native.switches, ref.switches)
			}
			native.switches, ref.switches = 0, 0
			nativeEvents, refEvents := native.events, ref.events
			native.events, ref.events = nil, nil
			if !reflect.DeepEqual(native, ref) {
				t.Fatalf("forms diverged:\n native    %+v\n reference %+v", native, ref)
			}
			for i := range refEvents {
				if i >= len(nativeEvents) || nativeEvents[i] != refEvents[i] {
					t.Fatalf("trace diverged at event %d of %d/%d:\n reference %+v", i, len(nativeEvents), len(refEvents), refEvents[i])
				}
			}
			if len(nativeEvents) != len(refEvents) {
				t.Fatalf("trace lengths differ: native %d, reference %d", len(nativeEvents), len(refEvents))
			}
		})
	}
}
