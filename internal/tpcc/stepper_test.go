package tpcc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/paging"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
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
	plan := func(spec string) faults.Config {
		c, err := faults.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return []formCase{
		{name: "adios", mode: core.Adios, rps: 150_000},
		{name: "dilos", mode: core.DiLOS, rps: 100_000},
		// A quantum the long transactions (Delivery, Stock-Level) outlast:
		// their per-line and per-district probes find it spent.
		{name: "probe-preemption", mode: core.DiLOSP, rps: 100_000, wantPreempts: true,
			tune: func(c *core.Config) { c.Sched.Quantum = 5000 }},
		{name: "ipi-preemption", mode: core.DiLOSP, rps: 100_000, wantPreempts: true,
			tune: func(c *core.Config) { c.Sched.PreemptIPI, c.Sched.Quantum = true, 3000 }},
		// Faults that stall for a frame (the reclaimer runs only once the
		// pool is empty) and for a QP slot; pages warmed before a lock is
		// taken are evicted again under it.
		{name: "starved", mode: core.Adios, rps: 40_000, wantStalls: true,
			tune: func(c *core.Config) {
				c.Paging = paging.DefaultConfig(48 * paging.PageSize)
				c.Paging.Proactive = false
				c.RDMA.QPDepth = 2
			}},
		// Abandoned fetches, dozens of them under a district or index lock
		// with contenders queued behind it. (With the hot district rows
		// resident none falls between Payment's warehouse and district
		// updates, the one abort TPC-C's consistency check would see.)
		{name: "aborts", mode: core.Adios, rps: 150_000, wantAborts: true,
			tune: func(c *core.Config) { c.Faults = plan("wr=0.3") }},
	}
}

// testConfig is a one-warehouse database whose order tables fill up
// within the run, so New-Orders abort on a full table as well as on an
// unused item.
func testConfig() Config {
	cfg := DefaultConfig(1)
	cfg.CustomersPerDistrict = 300
	cfg.ItemCount = 5000
	cfg.InitialOrders = 300
	cfg.OrderCapacity = 330
	return cfg
}

// crowdNames rebuilds db's by-last-name index so that nine last names in
// ten have 20 namesakes in every district (the generated names give at
// most five) — a longer run than the retired resolveCustomer's stack
// buffer held, some across leaf links — and the tenth has none.
func crowdNames(db *DB, sys *core.System) {
	const namesakes = 20
	C := db.cfg.CustomersPerDistrict
	var keys, vals []uint64
	for w := 0; w < db.cfg.Warehouses; w++ {
		for d := 0; d < districtsPerW; d++ {
			dIdx := db.dIdx(w, d)
			for last := 0; last < 1000; last++ {
				for j := 0; j < namesakes && last%10 != 0; j++ {
					c := j*(C/namesakes) + last%(C/namesakes)
					keys = append(keys, db.nameKey(dIdx, last, c))
					vals = append(vals, uint64(db.cIdx(w, d, c)))
				}
			}
		}
	}
	db.byName = btree.New(sys.Mgr, sys.Mem, "tpcc/byname-crowded", int64(len(keys))/100+64)
	db.byName.BulkLoad(keys, vals)
}

// lockWatch is the app with its stepper's Abort observed: an abandoned
// fetch under a lock must release the lock and hand it to its first
// waiter.
type lockWatch struct {
	*DB
	t                              *testing.T
	custWaits, underLock, handOffs int
}

type watchedStepper struct {
	stepper
	w *lockWatch
}

func (w *lockWatch) StepHandler() workload.StepHandler { return watchedStepper{stepper{w.DB}, w} }

func (s watchedStepper) Step(ctx workload.StepCtx, f *workload.StepFrame, payload any) (any, int, sim.Time, workload.StepStatus) {
	resp, n, cycles, st := s.stepper.Step(ctx, f, payload)
	if st == workload.StepBlock && f.PC == noCustLock {
		s.w.custWaits++
	}
	return resp, n, cycles, st
}

func (s watchedStepper) Abort(f *workload.StepFrame, err error) {
	var ms []*mutex
	var waiting []int
	for _, held := range f.W[:wDistrictLock+1] {
		if held > 0 {
			m := &s.db.locks[held-1]
			ms, waiting = append(ms, m), append(waiting, len(m.waiters))
		}
	}
	s.stepper.Abort(f, err)
	for i, m := range ms {
		s.w.underLock++
		if m.held || waiting[i] > 0 && len(m.waiters) != waiting[i]-1 {
			s.w.t.Fatalf("abort under a lock: held=%v, waiters %d → %d", m.held, waiting[i], len(m.waiters))
		}
		if waiting[i] > 0 {
			s.w.handOffs++
		}
	}
}

// formStats is the run's summary, every counter of its pinned row.
type formStats struct {
	digest                            uint64
	completed, aborts                 int64
	cpu, busyWait                     int64
	hits, faults, evictions, prefetch int64
	fetchWaits, allocStalls, preempts int64
	txAborts, nameMisses, conflicts   int64
	invalid, fullDistricts            int
}

// runForm drives the database through a whole core.System under tc and
// returns the run's summary, what the lock watch saw, and the run's pinned
// row: the summary and the SHA-256s of the trace and of every table byte.
func runForm(t *testing.T, tc formCase) (formStats, *lockWatch, string) {
	t.Helper()
	cfg := testConfig()
	c := core.Preset(tc.mode, Footprint(cfg)/5)
	c.Seed = 7
	if tc.tune != nil {
		tc.tune(&c)
	}
	sys := core.NewSystem(c)
	db := New(sys.Env, sys.Mgr, sys.Mem, cfg)
	crowdNames(db, sys)
	db.WarmCache()
	watch := &lockWatch{DB: db, t: t}
	sys.StartApp(watch)
	rec := trace.New(0)
	sys.Sched.Trace = rec

	var st formStats
	sys.Sched.OnComplete = func(req *sched.Request) {
		h := fnv.New64a()
		var b [8]byte
		put := func(vs ...uint64) {
			for _, v := range vs {
				for i := range b {
					b[i] = byte(v >> (8 * i))
				}
				h.Write(b[:])
			}
		}
		put(st.digest, req.Pkt.ID, uint64(req.Started), uint64(req.Finished), uint64(req.QueueWait),
			uint64(req.RDMAWait), uint64(req.BusyWait), uint64(req.CPU), uint64(req.Faults),
			uint64(req.Preemptions), uint64(req.Pkt.Size))
		if tx, ok := req.Pkt.Payload.(*Tx); ok { // nil on an aborted request
			h.Write([]byte(tx.Class))
			r1, r2, r3 := tx.NewOrderResp, tx.OrderStatusResp, tx.PaymentResp
			put(uint64(r1.OID), r1.TotalC, uint64(r2.OID), uint64(r2.Lines), uint64(r2.BalanceC),
				uint64(r3.BalanceC), uint64(tx.DeliveryResp.Delivered), uint64(tx.StockLevelResp.Low))
			if r1.Aborted {
				put(1)
				if tx.NewOrder.Invalid {
					st.invalid++
				}
			}
			if r2.Found {
				put(2)
			}
		}
		st.digest = h.Sum64()
		st.preempts += int64(req.Preemptions)
	}
	res := sys.Run(db, tc.rps, sim.Millis(1), sim.Millis(6))
	st.completed, st.aborts = res.Completed, res.Aborts
	st.cpu, st.busyWait = sys.Sched.CPUCycles(), sys.Sched.BusyWaitCycles()
	st.hits, st.faults = sys.Mgr.Hits.Value(), sys.Mgr.Faults.Value()
	st.evictions, st.prefetch = sys.Mgr.Evictions.Value(), sys.Mgr.PrefetchIssued.Value()
	st.fetchWaits, st.allocStalls = sys.Mgr.FetchWaits.Value(), sys.Mgr.AllocStalls.Value()
	st.txAborts, st.nameMisses, st.conflicts = db.Aborts.Value(), db.NameMisses.Value(), db.Conflicts.Value()
	if sw := sys.Env.KernelStats().Switches; sw != 0 {
		t.Fatalf("%d coroutine switches", sw)
	}

	// Every byte of every table and index, wherever it lives now.
	tables := sha256.New()
	buf := make([]byte, paging.PageSize)
	for _, sp := range []*paging.Space{db.warehouse, db.district, db.customer, db.item, db.stock,
		db.order, db.orderLine, db.history, db.byName.Space(), db.byCust.Space()} {
		for off := int64(0); off < sp.Size(); off += paging.PageSize {
			sp.ReadDirect(off, buf)
			tables.Write(buf)
		}
	}
	for d := 0; d < districtsPerW; d++ {
		var next [4]byte
		if db.district.ReadDirect(db.dOff(0, d)+fDNextOID, next[:]); int(binary.LittleEndian.Uint32(next[:])) == cfg.OrderCapacity {
			st.fullDistricts++
		}
	}
	if err := db.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	return st, watch, fmt.Sprintf("%+v trace=%s tables=%x", st, steptest.TraceSum(rec.Events()), tables.Sum(nil))
}

// The stepper is TPC-C's only request logic, and each row of
// testdata/stepper_digests.txt is what the direct-style bodies it
// replaced did under one policy — recorded from those bodies on the
// coroutine adapter, which ran them until the stepper had been proven to
// replay them exactly. The mix has all five transactions, by-name lookups
// over 20 namesakes, district-lock and index-lock waits, New-Orders
// aborted on an unused item and on a full order table, and fetches
// abandoned under a lock, which the stepper's Abort must release to the
// lock's first waiter. The stepper must reproduce every row: per-request
// timings and answers (an order-sensitive digest), every scheduler, paging
// and TPC-C counter, the trace's SHA-256 and that of every byte of the
// database.
func TestStepperMatchesReference(t *testing.T) {
	var custWaits, handOffs, invalid, full int
	for _, tc := range formCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			st, watch, row := runForm(t, tc)
			custWaits, handOffs = custWaits+watch.custWaits, handOffs+watch.handOffs
			invalid, full = invalid+st.invalid, full+st.fullDistricts
			t.Logf("completed %d, faults %d, tx aborts %d (%d unused item, %d full tables), name misses %d, conflicts %d, fetch aborts %d (%d under a lock, %d handed on), index-lock waits %d",
				st.completed, st.faults, st.txAborts, st.invalid, st.fullDistricts, st.nameMisses, st.conflicts,
				st.aborts, watch.underLock, watch.handOffs, watch.custWaits)
			if st.completed < 150 || st.faults == 0 || st.evictions == 0 || st.txAborts == 0 ||
				st.conflicts == 0 || st.nameMisses == 0 {
				t.Fatalf("workload too tame to mean anything: %+v", st)
			}
			if tc.wantPreempts != (st.preempts > 0) || tc.wantAborts != (st.aborts > 0) ||
				tc.wantStalls && st.allocStalls == 0 || tc.wantAborts && watch.underLock == 0 {
				t.Fatalf("case did not exercise what it is for: preempts=%d aborts=%d (under a lock %d) frame stalls=%d",
					st.preempts, st.aborts, watch.underLock, st.allocStalls)
			}
			steptest.Pinned(t, tc.name, row)
		})
	}
	if custWaits == 0 || handOffs == 0 || invalid == 0 || full == 0 {
		t.Fatalf("not covered: index-lock waits %d, aborts under a lock handed on %d, unused-item aborts %d, full order tables %d",
			custWaits, handOffs, invalid, full)
	}
}
