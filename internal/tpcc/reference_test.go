package tpcc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The five transactions as they were before they became a stepper: the
// direct-style bodies, verbatim but for two edits, run on
// workload.Blocking as the reference TestStepperMatchesReference holds the
// stepper to. The B-tree calls run btree.Op under the blocking Ctx (the
// recursive descent they replaced is btree's own reference), and
// New-Order's index-writer lock is released by a deferred unlock, as the
// district lock always was: the retired body leaked it when a fetch
// under it was abandoned, wedging every later New-Order.

// referenceHandler is the retired Handler.
func (db *DB) referenceHandler() workload.Handler {
	return func(ctx workload.Ctx, payload any) (any, int) {
		tx, respBytes := payload.(*Tx), 64
		switch tx.Class {
		case "NewOrder":
			tx.NewOrderResp, respBytes = db.NewOrder(ctx, tx.NewOrder), 96
		case "Payment":
			tx.PaymentResp = db.Payment(ctx, tx.Payment)
		case "OrderStatus":
			tx.OrderStatusResp, respBytes = db.OrderStatus(ctx, tx.OrderStatus), 96
		case "Delivery":
			tx.DeliveryResp = db.Delivery(ctx, tx.Delivery)
		case "StockLevel":
			tx.StockLevelResp = db.StockLevel(ctx, tx.StockLevel)
		default:
			panic(fmt.Sprintf("tpcc: unknown transaction %q", tx.Class))
		}
		return tx, respBytes
	}
}

func (m *mutex) lock(ctx workload.Ctx, contended *stats.Counter) {
	for m.held {
		contended.Inc()
		ctx.Block(func(wake func()) { m.waiters = append(m.waiters, wake) })
	}
	m.held = true
	// Holding a lock disables preemption (lest the holder be parked
	// behind the central queue while contenders spin — convoy collapse).
	ctx.CriticalEnter()
}

func (m *mutex) unlock(ctx workload.Ctx) {
	ctx.CriticalExit()
	m.held = false
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[1:]
		w()
	}
}

// opStepper is one index operation as a whole request, so that
// workload.Direct can run it under a blocking Ctx.
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

func runOp(ctx workload.Ctx, t *btree.Tree, op *btree.Op) *btree.Op {
	workload.Direct(opStepper{t, op})(ctx, nil)
	return op
}

func lookup(ctx workload.Ctx, t *btree.Tree, key uint64) (uint64, bool) {
	var op btree.Op
	op.Lookup(key)
	runOp(ctx, t, &op)
	return op.Val, op.Found
}

func insert(ctx workload.Ctx, t *btree.Tree, key, val uint64) {
	var op btree.Op
	op.Insert(key, val)
	runOp(ctx, t, &op)
}

func rangeVals(ctx workload.Ctx, t *btree.Tree, lo, hi uint64) []uint64 {
	var op btree.Op
	op.Range(lo, hi)
	return runOp(ctx, t, &op).Vals
}

// Paged field accessors charging per-record CPU.
func (db *DB) get32(ctx workload.Ctx, sp *paging.Space, off int64) uint32 {
	return sp.LoadU32(ctx, off)
}
func (db *DB) put32(ctx workload.Ctx, sp *paging.Space, off int64, v uint32) {
	sp.StoreU32(ctx, off, v)
}
func (db *DB) get64(ctx workload.Ctx, sp *paging.Space, off int64) uint64 {
	return sp.LoadU64(ctx, off)
}
func (db *DB) put64(ctx workload.Ctx, sp *paging.Space, off int64, v uint64) {
	sp.StoreU64(ctx, off, v)
}

// NewOrder implements TPC-C clause 2.4. Like Silo's OCC, the fault-prone
// read phase (items, stock, customer) runs before the district lock is
// taken; the critical section then operates on resident pages, so locks
// are never held across remote-memory fetches.
func (db *DB) NewOrder(ctx workload.Ctx, req NewOrderReq) NewOrderResp {
	ctx.Compute(db.cfg.ParseCost)
	dIdx := db.dIdx(req.W, req.D)

	// Read phase (unlocked): touch every page the write phase will need.
	ctx.Compute(db.cfg.RecordCost)
	_ = db.get32(ctx, db.warehouse, db.wOff(req.W)+fWTax)
	ctx.Compute(db.cfg.RecordCost)
	_ = db.get32(ctx, db.customer, db.cOff(req.W, req.D, req.C)+fCDiscount)
	_, _ = lookup(ctx, db.byCust, uint64(db.cIdx(req.W, req.D, req.C))) // warm the index leaf
	guessOID := db.get32(ctx, db.district, db.dOff(req.W, req.D)+fDNextOID)
	if int(guessOID) < db.cfg.OrderCapacity {
		// Warm the order/order-line pages the commit will write.
		_ = db.get32(ctx, db.order, db.oOff(req.W, req.D, int(guessOID))+fOCID)
		for i := range req.Lines {
			_ = db.get32(ctx, db.orderLine, db.olOff(req.W, req.D, int(guessOID), i)+fOLItem)
		}
	}
	for _, line := range req.Lines {
		ctx.Probe()
		ctx.Compute(db.cfg.LineCost)
		_ = db.get32(ctx, db.item, db.iOff(int(line.Item))+fIPrice)
		_ = db.get32(ctx, db.stock, db.sOff(req.W, int(line.Item))+fSQuantity)
	}

	// Write phase (locked, resident pages).
	lk := &db.locks[dIdx]
	lk.lock(ctx, &db.Conflicts)
	defer lk.unlock(ctx)

	oid := db.get32(ctx, db.district, db.dOff(req.W, req.D)+fDNextOID)
	if int(oid) >= db.cfg.OrderCapacity {
		// Order table exhausted for this run; treat as an abort rather
		// than corrupting neighbouring districts.
		db.Aborts.Inc()
		return NewOrderResp{Aborted: true}
	}
	if req.Invalid {
		// Unused item number (clause 2.4.1.4, 1% of New-Orders): the item
		// lookup failed during the read phase; abort before any write.
		db.Aborts.Inc()
		return NewOrderResp{Aborted: true}
	}
	db.put32(ctx, db.district, db.dOff(req.W, req.D)+fDNextOID, oid+1)
	var total uint64
	for i, line := range req.Lines {
		ctx.Probe()
		ctx.Compute(db.cfg.LineCost)
		price := db.get32(ctx, db.item, db.iOff(int(line.Item))+fIPrice)
		sOff := db.sOff(req.W, int(line.Item))
		qty := db.get32(ctx, db.stock, sOff+fSQuantity)
		if qty >= line.Qty+10 {
			qty -= line.Qty
		} else {
			qty = qty - line.Qty + 91
		}
		db.put32(ctx, db.stock, sOff+fSQuantity, qty)
		db.put32(ctx, db.stock, sOff+fSYtd, db.get32(ctx, db.stock, sOff+fSYtd)+line.Qty)
		db.put32(ctx, db.stock, sOff+fSOrderCnt, db.get32(ctx, db.stock, sOff+fSOrderCnt)+1)

		amount := uint64(line.Qty) * uint64(price)
		total += amount
		olOff := db.olOff(req.W, req.D, int(oid), i)
		db.put32(ctx, db.orderLine, olOff+fOLItem, line.Item)
		db.put32(ctx, db.orderLine, olOff+fOLQty, line.Qty)
		db.put64(ctx, db.orderLine, olOff+fOLAmount, amount)
		db.put32(ctx, db.orderLine, olOff+fOLSupply, uint32(req.W))
	}

	oOff := db.oOff(req.W, req.D, int(oid))
	db.put32(ctx, db.order, oOff+fOCID, uint32(req.C))
	db.put32(ctx, db.order, oOff+fOOLCnt, uint32(len(req.Lines)))
	db.put32(ctx, db.order, oOff+fOCarrierID, 0)
	db.put32(ctx, db.order, oOff+fOEntryD, uint32(db.env.Now()))
	db.locks[db.custLock].lock(ctx, &db.Conflicts)
	defer db.locks[db.custLock].unlock(ctx)
	insert(ctx, db.byCust, uint64(db.cIdx(req.W, req.D, req.C)), uint64(oid))
	return NewOrderResp{OID: int32(oid), TotalC: total}
}

// Payment implements TPC-C clause 2.5.
func (db *DB) Payment(ctx workload.Ctx, req PaymentReq) PaymentResp {
	ctx.Compute(db.cfg.ParseCost)
	dIdx := db.dIdx(req.W, req.D)
	c, ok := db.resolveCustomer(ctx, req.W, req.D, req.C, req.ByName, req.LastName)
	if !ok {
		return PaymentResp{}
	}
	req.C = c

	// Read phase (unlocked): warm the three rows the update touches.
	_ = db.get64(ctx, db.warehouse, db.wOff(req.W)+fWYtd)
	_ = db.get64(ctx, db.district, db.dOff(req.W, req.D)+fDYtd)
	_ = db.get64(ctx, db.customer, db.cOff(req.W, req.D, req.C)+fCBalance)
	h := db.histCursor[dIdx]
	if int(h) < db.cfg.OrderCapacity {
		_ = db.get32(ctx, db.history, db.hOff(req.W, req.D, int(h)))
	}

	lk := &db.locks[dIdx]
	lk.lock(ctx, &db.Conflicts)
	defer lk.unlock(ctx)

	ctx.Compute(db.cfg.RecordCost)
	db.put64(ctx, db.warehouse, db.wOff(req.W)+fWYtd,
		db.get64(ctx, db.warehouse, db.wOff(req.W)+fWYtd)+req.AmountC)
	ctx.Compute(db.cfg.RecordCost)
	db.put64(ctx, db.district, db.dOff(req.W, req.D)+fDYtd,
		db.get64(ctx, db.district, db.dOff(req.W, req.D)+fDYtd)+req.AmountC)

	ctx.Compute(db.cfg.RecordCost)
	cOff := db.cOff(req.W, req.D, req.C)
	bal := int64(db.get64(ctx, db.customer, cOff+fCBalance)) - int64(req.AmountC)
	db.put64(ctx, db.customer, cOff+fCBalance, uint64(bal))
	db.put64(ctx, db.customer, cOff+fCYtdPayment,
		db.get64(ctx, db.customer, cOff+fCYtdPayment)+req.AmountC)
	db.put32(ctx, db.customer, cOff+fCPaymentCnt,
		db.get32(ctx, db.customer, cOff+fCPaymentCnt)+1)

	// History append.
	h = db.histCursor[dIdx]
	if int(h) < db.cfg.OrderCapacity {
		db.histCursor[dIdx] = h + 1
		hOff := db.hOff(req.W, req.D, int(h))
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[:8], req.AmountC)
		binary.LittleEndian.PutUint32(rec[8:12], uint32(req.C))
		db.history.Store(ctx, hOff, rec[:])
	}
	return PaymentResp{BalanceC: bal}
}

// OrderStatus implements TPC-C clause 2.6 (read-only).
func (db *DB) OrderStatus(ctx workload.Ctx, req OrderStatusReq) OrderStatusResp {
	ctx.Compute(db.cfg.ParseCost)
	c, ok := db.resolveCustomer(ctx, req.W, req.D, req.C, req.ByName, req.LastName)
	if !ok {
		return OrderStatusResp{}
	}
	req.C = c
	ctx.Compute(db.cfg.RecordCost)
	cOff := db.cOff(req.W, req.D, req.C)
	bal := int64(db.get64(ctx, db.customer, cOff+fCBalance))
	last, found := lookup(ctx, db.byCust, uint64(db.cIdx(req.W, req.D, req.C)))
	if !found {
		return OrderStatusResp{BalanceC: bal}
	}
	oid := int32(last)
	ctx.Compute(db.cfg.RecordCost)
	lines := int(db.get32(ctx, db.order, db.oOff(req.W, req.D, int(oid))+fOOLCnt))
	for l := 0; l < lines; l++ {
		ctx.Probe()
		ctx.Compute(db.cfg.LineCost)
		_ = db.get64(ctx, db.orderLine, db.olOff(req.W, req.D, int(oid), l)+fOLAmount)
	}
	return OrderStatusResp{Found: true, OID: oid, Lines: lines, BalanceC: bal}
}

// resolveCustomer returns the target customer id: directly, or through
// the by-last-name B+tree — collect the matching customers (ordered by
// id, standing in for first-name order) and take the middle one, per
// clause 2.5.2.2.
func (db *DB) resolveCustomer(ctx workload.Ctx, w, d, c int, byName bool, last int) (int, bool) {
	if !byName {
		return c, true
	}
	dIdx := db.dIdx(w, d)
	var buf [16]int // on the handler's stack; a longer run of namesakes spills to the heap
	matches := buf[:0]
	ctx.Compute(db.cfg.RecordCost)
	for _, v := range rangeVals(ctx, db.byName, db.nameKey(dIdx, last, 0), db.nameKey(dIdx, last, 0xFFF)) {
		matches = append(matches, int(v%uint64(db.cfg.CustomersPerDistrict)))
	}
	if len(matches) == 0 {
		db.NameMisses.Inc()
		return 0, false
	}
	return matches[len(matches)/2], true
}

// Delivery implements TPC-C clause 2.7: for each district, deliver the
// oldest undelivered order.
func (db *DB) Delivery(ctx workload.Ctx, req DeliveryReq) DeliveryResp {
	ctx.Compute(db.cfg.ParseCost)
	delivered := 0
	for d := 0; d < districtsPerW; d++ {
		ctx.Probe()
		dIdx := db.dIdx(req.W, d)

		// Read phase (unlocked): warm the candidate order, its lines, and
		// the paying customer.
		cand := db.nextDeliver[dIdx]
		next := db.get32(ctx, db.district, db.dOff(req.W, d)+fDNextOID)
		if cand >= int32(next) {
			continue
		}
		oOff := db.oOff(req.W, d, int(cand))
		ctx.Compute(db.cfg.RecordCost)
		cID := int(db.get32(ctx, db.order, oOff+fOCID))
		lines := int(db.get32(ctx, db.order, oOff+fOOLCnt))
		var sum uint64
		for l := 0; l < lines; l++ {
			ctx.Compute(db.cfg.LineCost)
			sum += db.get64(ctx, db.orderLine, db.olOff(req.W, d, int(cand), l)+fOLAmount)
		}
		_ = db.get64(ctx, db.customer, db.cOff(req.W, d, cID)+fCBalance)

		lk := &db.locks[dIdx]
		lk.lock(ctx, &db.Conflicts)
		// Validate: another Delivery may have claimed the order while we
		// read; if so, skip (it will be picked up next time).
		if db.nextDeliver[dIdx] != cand {
			lk.unlock(ctx)
			continue
		}
		db.nextDeliver[dIdx] = cand + 1
		db.put32(ctx, db.order, oOff+fOCarrierID, req.Carrier)
		cOff := db.cOff(req.W, d, cID)
		bal := int64(db.get64(ctx, db.customer, cOff+fCBalance)) + int64(sum)
		db.put64(ctx, db.customer, cOff+fCBalance, uint64(bal))
		db.put32(ctx, db.customer, cOff+fCDeliveryCnt,
			db.get32(ctx, db.customer, cOff+fCDeliveryCnt)+1)
		delivered++
		lk.unlock(ctx)
	}
	return DeliveryResp{Delivered: delivered}
}

// StockLevel implements TPC-C clause 2.8: examine the order lines of the
// last 20 orders and count distinct items whose stock is below the
// threshold. Read-only, read-committed (no lock), and long — the other
// high-dispersion transaction besides Delivery.
func (db *DB) StockLevel(ctx workload.Ctx, req StockLevelReq) StockLevelResp {
	ctx.Compute(db.cfg.ParseCost)
	ctx.Compute(db.cfg.RecordCost)
	next := int32(db.get32(ctx, db.district, db.dOff(req.W, req.D)+fDNextOID))
	lo := next - 20
	if lo < 0 {
		lo = 0
	}
	var seen itemSet
	low := 0
	for o := lo; o < next; o++ {
		ctx.Probe()
		ctx.Compute(db.cfg.RecordCost)
		lines := int(db.get32(ctx, db.order, db.oOff(req.W, req.D, int(o))+fOOLCnt))
		for l := 0; l < lines; l++ {
			ctx.Compute(db.cfg.LineCost)
			item := db.get32(ctx, db.orderLine, db.olOff(req.W, req.D, int(o), l)+fOLItem)
			if !seen.add(item) {
				continue
			}
			ctx.Compute(db.cfg.RecordCost)
			if db.get32(ctx, db.stock, db.sOff(req.W, int(item))+fSQuantity) < req.Threshold {
				low++
			}
		}
	}
	return StockLevelResp{Low: low}
}
