package tpcc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/btree"
	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/workload/steptest"
)

// exec queues tx through the stepper; done, if set, gets it answered.
func exec(th *steptest.Thread, db *DB, tx Tx, done func(*Tx)) {
	th.Run(db.StepHandler(), &tx, func(any, int) {
		if done != nil {
			done(&tx)
		}
	})
}

// get32 and get64 read a field wherever it lives, taking no simulated
// time.
func get32(sp *paging.Space, off int64) uint32 {
	var b [4]byte
	sp.ReadDirect(off, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func get64(sp *paging.Space, off int64) uint64 {
	var b [8]byte
	sp.ReadDirect(off, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// opStepper is one index operation as a whole request, so that a harness
// thread can drive it.
type opStepper struct {
	t  *btree.Tree
	op *btree.Op
}

func (opStepper) Begin(*workload.StepFrame, any)   {}
func (opStepper) Abort(*workload.StepFrame, error) {}
func (s opStepper) Step(ctx workload.StepCtx, _ *workload.StepFrame, _ any) (any, int, sim.Time, workload.StepStatus) {
	if !s.t.Step(ctx, s.op) {
		return nil, 0, 0, workload.StepFault
	}
	return nil, 0, 0, workload.StepDone
}

func lookup(th *steptest.Thread, t *btree.Tree, key uint64, done func(val uint64, found bool)) {
	var op btree.Op
	op.Lookup(key)
	th.Run(opStepper{t, &op}, nil, func(any, int) { done(op.Val, op.Found) })
}

func rangeVals(th *steptest.Thread, t *btree.Tree, lo, hi uint64, done func(vals []uint64)) {
	var op btree.Op
	op.Range(lo, hi)
	th.Run(opStepper{t, &op}, nil, func(any, int) { done(op.Vals) })
}

// smallConfig shrinks TPC-C to test scale while keeping the schema.
func smallConfig() Config {
	cfg := DefaultConfig(2)
	cfg.CustomersPerDistrict = 60
	cfg.ItemCount = 500
	cfg.InitialOrders = 40
	cfg.OrderCapacity = 200
	return cfg
}

type rig struct {
	env *sim.Env
	mgr *paging.Manager
	db  *DB
	rig *steptest.Rig
}

func newRig(t *testing.T, cfg Config, localFrac float64) *rig {
	t.Helper()
	env := sim.NewEnv(17)
	node := memnode.New(8 << 30)
	probeEnv := sim.NewEnv(17)
	probe := New(probeEnv, paging.NewManager(probeEnv, paging.DefaultConfig(paging.PageSize)), memnode.New(8<<30), cfg)
	local := int64(localFrac * float64(probe.TotalBytes()))
	if local < 32*paging.PageSize {
		local = 32 * paging.PageSize
	}
	mgr := paging.NewManager(env, paging.DefaultConfig(local))
	db := New(env, mgr, node, cfg)
	db.WarmCache()
	return &rig{env: env, mgr: mgr, db: db, rig: steptest.NewRig(mgr)}
}

// run runs the transactions fn queues on a harness thread.
func (r *rig) run(t *testing.T, fn func(th *steptest.Thread)) {
	t.Helper()
	fn(r.rig.Thread())
	r.env.Run(sim.Seconds(600))
}

func TestNewOrderCreatesConsistentOrder(t *testing.T) {
	r := newRig(t, smallConfig(), 0.3)
	r.run(t, func(th *steptest.Thread) {
		db := r.db
		lines := []NewOrderLine{{Item: 3, Qty: 2}, {Item: 77, Qty: 5}, {Item: 240, Qty: 1}}
		before := get32(db.district, db.dOff(1, 4)+fDNextOID)
		var resp NewOrderResp
		exec(th, db, Tx{Class: "NewOrder", NewOrder: NewOrderReq{W: 1, D: 4, C: 7, Lines: lines}}, func(tx *Tx) {
			if resp = tx.NewOrderResp; resp.Aborted {
				t.Fatal("unexpected abort")
			}
			if resp.OID != int32(before) {
				t.Errorf("OID = %d, want %d", resp.OID, before)
			}
			after := get32(db.district, db.dOff(1, 4)+fDNextOID)
			if after != before+1 {
				t.Errorf("D_NEXT_O_ID = %d, want %d", after, before+1)
			}
			// Order record and lines match.
			oOff := db.oOff(1, 4, int(resp.OID))
			if got := get32(db.order, oOff+fOOLCnt); got != 3 {
				t.Errorf("OL count = %d", got)
			}
			var sum uint64
			for l := 0; l < 3; l++ {
				olOff := db.olOff(1, 4, int(resp.OID), l)
				if get32(db.orderLine, olOff+fOLItem) != lines[l].Item {
					t.Errorf("line %d item mismatch", l)
				}
				sum += get64(db.orderLine, olOff+fOLAmount)
			}
			if sum != resp.TotalC {
				t.Errorf("line sum %d != total %d", sum, resp.TotalC)
			}
		})
		// The customer's last order is indexed for OrderStatus.
		exec(th, db, Tx{Class: "OrderStatus", OrderStatus: OrderStatusReq{W: 1, D: 4, C: 7}}, func(tx *Tx) {
			if st := tx.OrderStatusResp; !st.Found || st.OID != resp.OID || st.Lines != 3 {
				t.Errorf("order status = %+v", st)
			}
		})
	})
}

func TestInvalidNewOrderRollsBack(t *testing.T) {
	r := newRig(t, smallConfig(), 0.3)
	r.run(t, func(th *steptest.Thread) {
		db := r.db
		before := get32(db.district, db.dOff(0, 0)+fDNextOID)
		sBefore := get32(db.stock, db.sOff(0, 5)+fSQuantity)
		exec(th, db, Tx{Class: "NewOrder", NewOrder: NewOrderReq{W: 0, D: 0, C: 1,
			Lines: []NewOrderLine{{Item: 5, Qty: 3}}, Invalid: true}}, func(tx *Tx) {
			if !tx.NewOrderResp.Aborted {
				t.Error("invalid order did not abort")
			}
			if get32(db.district, db.dOff(0, 0)+fDNextOID) != before {
				t.Error("D_NEXT_O_ID not rolled back")
			}
			if get32(db.stock, db.sOff(0, 5)+fSQuantity) != sBefore {
				t.Error("stock modified by aborted transaction")
			}
		})
	})
	if r.db.Aborts.Value() != 1 {
		t.Fatalf("aborts = %d", r.db.Aborts.Value())
	}
}

func TestPaymentYTDInvariant(t *testing.T) {
	// TPC-C consistency condition 1: W_YTD = sum(D_YTD) must hold after
	// any number of Payments.
	r := newRig(t, smallConfig(), 0.3)
	r.run(t, func(th *steptest.Thread) {
		db := r.db
		rng := sim.NewRNG(4)
		var paid uint64
		for i := 0; i < 50; i++ {
			amt := uint64(100 + rng.Intn(100000))
			paid += amt
			exec(th, db, Tx{Class: "Payment", Payment: PaymentReq{W: 0, D: rng.Intn(10), C: rng.Intn(60), AmountC: amt}}, nil)
		}
		th.Do(func() {
			wYtd := get64(db.warehouse, db.wOff(0)+fWYtd)
			var dSum uint64
			for d := 0; d < 10; d++ {
				dSum += get64(db.district, db.dOff(0, d)+fDYtd)
			}
			if wYtd != dSum {
				t.Errorf("W_YTD %d != sum(D_YTD) %d", wYtd, dSum)
			}
			if wYtd != 300_000_000+paid {
				t.Errorf("W_YTD %d != initial + payments %d", wYtd, 300_000_000+paid)
			}
		})
	})
}

func TestPaymentUpdatesCustomer(t *testing.T) {
	r := newRig(t, smallConfig(), 0.3)
	r.run(t, func(th *steptest.Thread) {
		db := r.db
		exec(th, db, Tx{Class: "Payment", Payment: PaymentReq{W: 1, D: 2, C: 3, AmountC: 5000}}, func(tx *Tx) {
			if resp := tx.PaymentResp; resp.BalanceC != -1000-5000 {
				t.Errorf("balance = %d, want -6000", resp.BalanceC)
			}
			cOff := db.cOff(1, 2, 3)
			if get32(db.customer, cOff+fCPaymentCnt) != 1 {
				t.Error("payment count not incremented")
			}
		})
	})
}

func TestDeliveryAdvancesAndPaysCustomer(t *testing.T) {
	r := newRig(t, smallConfig(), 0.3)
	r.run(t, func(th *steptest.Thread) {
		db := r.db
		before := make([]int32, 10)
		for d := 0; d < 10; d++ {
			before[d] = db.nextDeliver[db.dIdx(0, d)]
		}
		exec(th, db, Tx{Class: "Delivery", Delivery: DeliveryReq{W: 0, Carrier: 7}}, func(tx *Tx) {
			if resp := tx.DeliveryResp; resp.Delivered != 10 {
				t.Errorf("delivered = %d, want 10 (undelivered orders exist)", resp.Delivered)
			}
			for d := 0; d < 10; d++ {
				dIdx := db.dIdx(0, d)
				if db.nextDeliver[dIdx] != before[d]+1 {
					t.Errorf("district %d delivery cursor did not advance", d)
				}
				oOff := db.oOff(0, d, int(before[d]))
				if get32(db.order, oOff+fOCarrierID) != 7 {
					t.Errorf("district %d order carrier not set", d)
				}
			}
		})
	})
}

func TestStockLevelCountsLowStock(t *testing.T) {
	r := newRig(t, smallConfig(), 0.3)
	r.run(t, func(th *steptest.Thread) {
		db := r.db
		// Threshold above max initial quantity (100): every distinct item
		// in the last 20 orders counts.
		exec(th, db, Tx{Class: "StockLevel", StockLevel: StockLevelReq{W: 0, D: 0, Threshold: 101}}, func(tx *Tx) {
			if tx.StockLevelResp.Low == 0 {
				t.Error("expected low-stock items at threshold 101")
			}
		})
		// Threshold 0: nothing can be below it.
		exec(th, db, Tx{Class: "StockLevel", StockLevel: StockLevelReq{W: 0, D: 0, Threshold: 0}}, func(tx *Tx) {
			if low := tx.StockLevelResp.Low; low != 0 {
				t.Errorf("low = %d at threshold 0", low)
			}
		})
	})
}

func TestConcurrentNewOrdersSerialize(t *testing.T) {
	// Two simulated threads hammer the same district; the per-district
	// lock must serialize order-id allocation (no duplicates, no gaps).
	r := newRig(t, smallConfig(), 0.2)
	db := r.db
	seen := map[int32]bool{}
	const perThread = 25
	for i := 0; i < 2; i++ {
		th := r.rig.Thread()
		for n := 0; n < perThread; n++ {
			exec(th, db, Tx{Class: "NewOrder", NewOrder: NewOrderReq{W: 0, D: 0, C: n,
				Lines: []NewOrderLine{{Item: uint32(n), Qty: 1}, {Item: uint32(n + 100), Qty: 2}}}}, func(tx *Tx) {
				resp := tx.NewOrderResp
				if resp.Aborted {
					t.Fatal("unexpected abort")
				}
				if seen[resp.OID] {
					t.Fatalf("duplicate order id %d", resp.OID)
				}
				seen[resp.OID] = true
			})
		}
	}
	r.env.Run(sim.Seconds(600))
	if len(seen) != 2*perThread {
		t.Fatalf("orders created = %d, want %d", len(seen), 2*perThread)
	}
	if db.Conflicts.Value() == 0 {
		t.Log("note: no lock conflicts observed (acceptable, timing dependent)")
	}
}

func TestRequestMixMatchesPaper(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := smallConfig()
	db := New(env, paging.NewManager(env, paging.DefaultConfig(64*paging.PageSize)), memnode.New(8<<30), cfg)
	rng := sim.NewRNG(2)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		payload, _ := db.NextRequest(rng, nil)
		counts[db.Classify(payload)]++
	}
	check := func(class string, want float64) {
		got := float64(counts[class]) / n
		if got < want-0.02 || got > want+0.02 {
			t.Errorf("%s fraction = %.3f, want %.3f", class, got, want)
		}
	}
	check("NewOrder", Mix.NewOrder)
	check("Payment", Mix.Payment)
	check("OrderStatus", Mix.OrderStatus)
	check("Delivery", Mix.Delivery)
	check("StockLevel", 1-Mix.NewOrder-Mix.Payment-Mix.OrderStatus-Mix.Delivery)
}

func TestNURandInRange(t *testing.T) {
	rng := sim.NewRNG(8)
	for i := 0; i < 10000; i++ {
		v := nurand(rng, 1023, 7, 0, 2999)
		if v < 0 || v > 2999 {
			t.Fatalf("nurand out of range: %d", v)
		}
	}
	// NURand must be non-uniform: the top decile should be hit far less
	// evenly than uniform... check basic skew by chi-square-lite: count
	// hits in 10 buckets and require spread.
	buckets := make([]int, 10)
	for i := 0; i < 50000; i++ {
		buckets[nurand(rng, 1023, 7, 0, 2999)/300]++
	}
	min, max := buckets[0], buckets[0]
	for _, b := range buckets {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if max-min < 500 {
		t.Errorf("NURand looks uniform: buckets %v", buckets)
	}
}

func TestByNameLookupFindsMiddleCustomer(t *testing.T) {
	r := newRig(t, smallConfig(), 0.3)
	r.run(t, func(th *steptest.Thread) {
		db := r.db
		// Find a last name with at least one holder among customers 0..59.
		last := lastName(7)
		exec(th, db, Tx{Class: "Payment", Payment: PaymentReq{W: 0, D: 1, ByName: true, LastName: last, AmountC: 100}}, func(*Tx) {
			if db.NameMisses.Value() != 0 {
				t.Fatal("by-name lookup missed an existing last name")
			}
		})
		// The payment must have hit a customer whose lastName matches:
		// verify via the index directly.
		rangeVals(th, db.byName, db.nameKey(db.dIdx(0, 1), last, 0), db.nameKey(db.dIdx(0, 1), last, 0xFFF), func(vals []uint64) {
			var matches []int
			for _, v := range vals {
				matches = append(matches, int(v)%db.cfg.CustomersPerDistrict)
			}
			if len(matches) == 0 {
				t.Fatal("index empty for existing last name")
			}
			mid := matches[len(matches)/2]
			cOff := db.cOff(0, 1, mid)
			if got := get32(db.customer, cOff+fCPaymentCnt); got != 1 {
				t.Errorf("middle customer %d payment count = %d, want 1", mid, got)
			}
		})
	})
}

func TestOrderStatusThroughIndexAfterNewOrder(t *testing.T) {
	r := newRig(t, smallConfig(), 0.3)
	r.run(t, func(th *steptest.Thread) {
		db := r.db
		var resp NewOrderResp
		exec(th, db, Tx{Class: "NewOrder", NewOrder: NewOrderReq{W: 1, D: 2, C: 9,
			Lines: []NewOrderLine{{Item: 1, Qty: 1}}}}, func(tx *Tx) {
			if resp = tx.NewOrderResp; resp.Aborted {
				t.Fatal("abort")
			}
		})
		exec(th, db, Tx{Class: "OrderStatus", OrderStatus: OrderStatusReq{W: 1, D: 2, C: 9}}, func(tx *Tx) {
			if st := tx.OrderStatusResp; !st.Found || st.OID != resp.OID {
				t.Errorf("order status through byCust index = %+v, want OID %d", st, resp.OID)
			}
		})
		// By-name OrderStatus for the same customer's last name resolves
		// through both B+trees.
		exec(th, db, Tx{Class: "OrderStatus", OrderStatus: OrderStatusReq{W: 1, D: 2, ByName: true, LastName: lastName(9)}}, func(*Tx) {
			if db.NameMisses.Value() != 0 {
				t.Error("name miss for existing customer")
			}
		})
	})
}

func TestConcurrentNewOrdersKeepIndexConsistent(t *testing.T) {
	// Multiple threads insert into byCust concurrently (different
	// districts); the index must stay structurally sound and complete.
	r := newRig(t, smallConfig(), 0.25)
	db := r.db
	type created struct {
		c, d int
		oid  int32
	}
	var all []created
	for d := 0; d < 4; d++ {
		th := r.rig.Thread()
		for n := 0; n < 20; n++ {
			c := d*10 + n%10
			exec(th, db, Tx{Class: "NewOrder", NewOrder: NewOrderReq{W: 0, D: d, C: c,
				Lines: []NewOrderLine{{Item: uint32(n), Qty: 1}}}}, func(tx *Tx) {
				if tx.NewOrderResp.Aborted {
					t.Fatal("abort")
				}
				all = append(all, created{c: c, d: d, oid: tx.NewOrderResp.OID})
			})
		}
	}
	r.env.Run(sim.Seconds(600))
	// Verify the final index: every customer's recorded last order is
	// the greatest oid created for it.
	want := map[[2]int]int32{}
	for _, cr := range all {
		key := [2]int{cr.d, cr.c}
		if cr.oid > want[key] {
			want[key] = cr.oid
		}
	}
	th := r.rig.Thread()
	for key, oid := range want {
		lookup(th, db.byCust, uint64(db.cIdx(0, key[0], key[1])), func(got uint64, found bool) {
			if !found || int32(got) != oid {
				t.Fatalf("byCust[%v] = %d,%v want %d", key, got, found, oid)
			}
		})
	}
	r.env.Run(sim.Seconds(1200))
}

// StockLevel dedupes items in a fixed table on its stack where it used to
// build a map per call: over random item multisets of up to the 300 items
// the last 20 orders can hold — ids drawn from a small range, so
// duplicates and probe chains abound — every add must answer as the map
// did, and the table must cost no allocation.
func TestItemSetMatchesMap(t *testing.T) {
	rng := sim.NewRNG(13)
	items := make([]uint32, 0, 20*maxLines)
	for trial := 0; trial < 1000; trial++ {
		items = items[:0]
		span := 1 + rng.Intn(100_000)
		for n := 1 + rng.Intn(20*maxLines); len(items) < n; {
			items = append(items, uint32(rng.Intn(span)))
		}
		var set itemSet
		seen := map[uint32]struct{}{}
		for i, item := range items {
			_, dup := seen[item]
			seen[item] = struct{}{}
			if got := set.add(item); got == dup {
				t.Fatalf("trial %d, item %d (%d): add = %v, the map says duplicate = %v", trial, i, item, got, dup)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		var set itemSet
		for _, item := range items {
			set.add(item)
		}
	}); n != 0 {
		t.Fatalf("%v allocations per dedupe, want 0", n)
	}
}

// seededBytesSHA256 is the digest of a freshly built DefaultConfig(2)
// database: the eight tables and both index regions, in that order.
const seededBytesSHA256 = "88def6924712e5122714dc616d7a1f67ee7d11a4ed6516c2f2a28dfe360b4ec8"

// TestSeededBytesPinned: set-up writes every table field and index node
// straight into the backing regions, drawing from the set-up RNG in a
// fixed order. With no page resident the regions hold every byte, and
// their digest must not move — a reordered draw or a misplaced field
// changes it.
func TestSeededBytesPinned(t *testing.T) {
	env := sim.NewEnv(1)
	db := New(env, paging.NewManager(env, paging.DefaultConfig(1<<20)), memnode.New(1<<30), DefaultConfig(2))
	h := sha256.New()
	for _, sp := range []*paging.Space{db.warehouse, db.district, db.customer, db.item, db.stock,
		db.order, db.orderLine, db.history, db.byName.Space(), db.byCust.Space()} {
		for vpn := int64(0); vpn < sp.Pages(); vpn++ {
			if sp.Resident(vpn) {
				t.Fatalf("%s page %d resident after set-up", sp.Name(), vpn)
			}
		}
		h.Write(sp.Region().Data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != seededBytesSHA256 {
		t.Fatalf("seeded bytes digest %s, want %s", got, seededBytesSHA256)
	}
}
