package tpcc

import (
	"encoding/binary"

	"repro/internal/paging"
	"repro/internal/workload"
)

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

// NewOrderLine is one item of a NewOrder request.
type NewOrderLine struct {
	Item uint32
	Qty  uint32
}

// NewOrderReq is the New-Order transaction input.
type NewOrderReq struct {
	W, D, C int
	Lines   []NewOrderLine
	// Invalid simulates TPC-C's 1% unused-item-number rule: the
	// transaction aborts after the item lookup fails.
	Invalid bool
}

// NewOrderResp reports the created order.
type NewOrderResp struct {
	OID     int32
	TotalC  uint64 // total amount in cents, pre-tax
	Aborted bool
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
	_, _ = db.byCust.Lookup(ctx, uint64(db.cIdx(req.W, req.D, req.C))) // warm the index leaf
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
	db.custLock.lock(ctx, &db.Conflicts)
	db.byCust.Insert(ctx, uint64(db.cIdx(req.W, req.D, req.C)), uint64(oid))
	db.custLock.unlock(ctx)
	return NewOrderResp{OID: int32(oid), TotalC: total}
}

// PaymentReq is the Payment transaction input. With ByName set the
// customer is selected through the by-last-name index (60% of Payments,
// clause 2.5.2.2) and C is ignored.
type PaymentReq struct {
	W, D, C  int
	ByName   bool
	LastName int
	AmountC  uint64 // cents
}

// PaymentResp reports the customer's new balance.
type PaymentResp struct{ BalanceC int64 }

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

// OrderStatusReq is the Order-Status transaction input. ByName selects
// the customer via the by-last-name index (60% of requests).
type OrderStatusReq struct {
	W, D, C  int
	ByName   bool
	LastName int
}

// OrderStatusResp reports the customer's last order.
type OrderStatusResp struct {
	Found    bool
	OID      int32
	Lines    int
	BalanceC int64
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
	last, found := db.byCust.Lookup(ctx, uint64(db.cIdx(req.W, req.D, req.C)))
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
	db.byName.Range(ctx, db.nameKey(dIdx, last, 0), db.nameKey(dIdx, last, 0xFFF),
		func(k, v uint64) bool {
			matches = append(matches, int(v%uint64(db.cfg.CustomersPerDistrict)))
			return true
		})
	if len(matches) == 0 {
		db.NameMisses.Inc()
		return 0, false
	}
	return matches[len(matches)/2], true
}

// DeliveryReq is the Delivery transaction input.
type DeliveryReq struct {
	W       int
	Carrier uint32
}

// DeliveryResp reports how many districts had an order to deliver.
type DeliveryResp struct{ Delivered int }

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

// StockLevelReq is the Stock-Level transaction input.
type StockLevelReq struct {
	W, D      int
	Threshold uint32
}

// itemSet is StockLevel's dedupe table, on the handler's stack: the last
// 20 orders hold at most 20 × maxLines = 300 items, so a fixed
// open-addressing table of 512 never fills. A slot holds item+1; 0 is
// empty.
type itemSet [512]uint32

// add inserts item and reports whether it was absent.
func (s *itemSet) add(item uint32) bool {
	for i := item * 0x9E3779B1 >> 23; ; i = (i + 1) % uint32(len(s)) {
		switch s[i] {
		case 0:
			s[i] = item + 1
			return true
		case item + 1:
			return false
		}
	}
}

// StockLevelResp reports the low-stock count.
type StockLevelResp struct{ Low int }

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
