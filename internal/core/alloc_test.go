package core

import (
	"runtime"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sstable"
	"repro/internal/tpcc"
	"repro/internal/workload"
)

// runMallocs builds a fresh system around build's app, drives it for
// warm+measure and returns the heap objects allocated inside System.Run
// with the requests it completed.
func runMallocs(t *testing.T, local int64, build func(*System) workload.App, rps float64, measure sim.Time) (mallocs, completed float64) {
	t.Helper()
	sys := NewSystem(Preset(Adios, local))
	app := build(sys)
	sys.StartApp(app)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := sys.Run(app, rps, sim.Millis(2), measure)
	runtime.ReadMemStats(&after)
	if res.Completed == 0 || res.Drops != 0 {
		t.Fatalf("completed %d, dropped %d", res.Completed, res.Drops)
	}
	return float64(after.Mallocs - before.Mallocs), float64(res.Completed)
}

// The run-wide allocation guard: a request costs no heap object from the
// load generator through the network, the scheduler and the app. A whole
// System.Run still allocates while the Env warms up — the pools fill to
// the number of requests in flight, and the wheel's recycled bucket
// arrays grow to the run's bucket sizes — but a warm wheel allocates
// nothing as simulated time reaches new buckets, so a run no longer
// allocates per simulated millisecond. None of the warm-up scales with
// requests, so the per-request cost is the slope between two window
// lengths, and the warm-up is bounded on the longer run. Measured: 0.0004
// / 0.0016 / 0.0012 per further request and 0.0009 / 0.0056 / 0.0083 per
// request on the longer run for the array, the table and TPC-C, whose
// transactions — locks, B-tree descents and splits — are native steps
// with their working state in the recycled message record. The bounds
// are two to six times those.
func TestRunIsAllocationFreePerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under -race")
	}
	const arrayBytes = 16 << 20
	sstCfg := sstable.DefaultConfig(20_000, 1024)
	tpccCfg := tpcc.DefaultConfig(1)
	tpccCfg.CustomersPerDistrict, tpccCfg.ItemCount, tpccCfg.InitialOrders = 300, 5000, 300
	for _, tc := range []struct {
		name      string
		local     int64
		build     func(*System) workload.App
		rps       float64
		windows   [2]sim.Time
		slopeMax  float64
		perReqMax float64 // on the longer run
	}{
		{"array-resident", arrayBytes * 5 / 4, func(sys *System) workload.App {
			a := workload.NewArrayApp(sys.Mgr, sys.Mem, arrayBytes)
			a.WarmCache()
			return a
		}, 600_000, [2]sim.Time{sim.Millis(560), sim.Millis(760)}, 0.001, 0.005},
		{"sstable", sstable.Footprint(sstCfg) / 5, func(sys *System) workload.App {
			tab := sstable.New(sys.Mgr, sys.Mem, sstCfg)
			tab.WarmCache()
			return tab
		}, 400_000, [2]sim.Time{sim.Millis(60), sim.Millis(180)}, 0.005, 0.02},
		{"tpcc", tpcc.Footprint(tpccCfg) / 5, func(sys *System) workload.App {
			db := tpcc.New(sys.Env, sys.Mgr, sys.Mem, tpccCfg)
			db.WarmCache()
			return db
		}, 100_000, [2]sim.Time{sim.Millis(560), sim.Millis(760)}, 0.005, 0.03},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m1, c1 := runMallocs(t, tc.local, tc.build, tc.rps, tc.windows[0])
			m2, c2 := runMallocs(t, tc.local, tc.build, tc.rps, tc.windows[1])
			slope := (m2 - m1) / (c2 - c1)
			t.Logf("%.0f allocs / %.0f requests, then %.0f / %.0f: %.4f per further request, %.4f per request on the longer run",
				m1, c1, m2, c2, slope, m2/c2)
			if slope > tc.slopeMax {
				t.Errorf("%.4f allocations per further request, want at most %v", slope, tc.slopeMax)
			}
			if m2/c2 > tc.perReqMax {
				t.Errorf("%.4f allocations per request over the longer run, want at most %v", m2/c2, tc.perReqMax)
			}
		})
	}
}

// Under SyncTx the worker waits 2.6 µs for its TX completion while the
// response reaches the generator after 1.05 µs, so OnComplete runs after
// delivery — and at this rate the generator sends again within that gap
// more often than not. The packet a completion reads must still be the
// request's own: a generator that recycled at delivery would show
// OnComplete a later request's ID and a TxTime after this one's arrival.
func TestSyncTxCompletionSeesItsOwnPacket(t *testing.T) {
	sys, app := buildMicro(DiLOS, 4<<20, 1.25, 3)
	admitted := map[uint64]sim.Time{} // ID → TxTime, as the node first saw them
	sys.Sched.Admit = func(pkt *ethernet.Packet) bool {
		admitted[pkt.ID] = pkt.TxTime
		return true
	}
	completions, afterDelivery := 0, 0
	sys.Sched.OnComplete = func(q *sched.Request) {
		tx, ok := admitted[q.Pkt.ID]
		if !ok || tx != q.Pkt.TxTime || q.Pkt.TxTime >= q.Arrive {
			t.Fatalf("completion %d reads packet id=%d tx=%v (admitted tx=%v known=%v, request arrived %v): not this request's packet",
				completions, q.Pkt.ID, q.Pkt.TxTime, tx, ok, q.Arrive)
		}
		delete(admitted, q.Pkt.ID)
		completions++
		if q.Pkt.RxTime > q.Pkt.TxTime {
			afterDelivery++ // delivery stamped RxTime before this completion ran
		}
	}
	res := sys.Run(app, 1_500_000, sim.Millis(1), sim.Millis(4))
	if completions < 5000 || afterDelivery < completions*9/10 {
		t.Fatalf("%d completions, %d after delivery: the test did not reach the hazard", completions, afterDelivery)
	}
	if res.Drops != 0 || app.Mismatches.Value() != 0 {
		t.Fatalf("drops=%d mismatches=%d", res.Drops, app.Mismatches.Value())
	}
}
