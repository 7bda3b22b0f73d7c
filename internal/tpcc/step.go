package tpcc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/btree"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/workload"
)

// itemSet is StockLevel's dedupe table: the last 20 orders hold at most
// 20 × maxLines = 300 items, so a fixed open-addressing table of 512
// never fills. A slot holds item+1; 0 is empty.
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

// stepper is the five transactions' request logic, and its only form: a
// walk through a transaction's phases on the worker core's step machine,
// with no stack of its own. A phase is the accesses to one page — for an
// index, one node (btree.Op) —, a lock, or a decision on what was read.
// What needs no decision — a charge, a probe, a read that warms a page or
// fetches a u32 for a later phase — a phase queues, to run before the
// next with a resume point per op; so a transaction reads top to bottom,
// charge for charge, probe for probe, access for access. Within a step no
// simulated time passes and a hit evicts nothing, so only a phase's first
// access can miss: that is its resume point. No record field straddles a
// page: records are 32-byte aligned, their fields in the first 28 bytes.
type stepper struct{ db *DB }

// txRun is where a transaction is between steps, beside the frame's phase
// and locks. Stock-Level alone clears its dedupe table.
type txRun struct {
	queue     [maxLines + 1]txOp // the most a phase queues: New-Order's guessed order row and lines
	head, n   int                // queue[head:n] is still to run
	respBytes int

	i, end      int    // outer loop: New-Order's line, Delivery's district, Stock-Level's order
	l, lines    int    // inner loop: the lines of an order
	c, oid      int    // the customer; an order id (Delivery: the district's next)
	price, item int    // New-Order's line price; Stock-Level's item
	slot, cand  int32  // Payment's history slot; Delivery's candidate order
	sum         uint64 // Delivery's order total
	op          btree.Op
	seen        itemSet
}

// txOp is a queued op: a read of the u32 at off in sp — into *to, unless
// it only warms the page —, a probe, or a charge of cost cycles.
type txOp struct {
	sp    *paging.Space
	off   int64
	to    *int
	probe bool
	cost  sim.Time
}

func (r *txRun) push(op txOp)                              { r.queue[r.n], r.n = op, r.n+1 }
func (r *txRun) charge(cost sim.Time)                      { r.push(txOp{cost: cost}) }
func (r *txRun) probe()                                    { r.push(txOp{probe: true}) }
func (r *txRun) touch(sp *paging.Space, off int64)         { r.push(txOp{sp: sp, off: off}) }
func (r *txRun) read(sp *paging.Space, off int64, to *int) { r.push(txOp{sp: sp, off: off, to: to}) }

// drain runs the queue until an op needs the scheduler — a charge, a
// probe that costs, a read that missed (retried first) — and returns what
// it needs, or until the queue is empty (ok).
func (r *txRun) drain(ctx workload.StepCtx) (cycles sim.Time, st workload.StepStatus, ok bool) {
	for ; r.head < r.n; r.head++ {
		switch op := &r.queue[r.head]; {
		case op.sp != nil:
			page, hit := ctx.TryPage(op.sp, op.off>>paging.PageShift)
			if !hit {
				return 0, workload.StepFault, false
			}
			if op.to != nil {
				*op.to = int(binary.LittleEndian.Uint32(page[op.off&(paging.PageSize-1):]))
			}
		case op.probe:
			if !ctx.ProbeFree() {
				r.head++
				return 0, workload.StepProbe, false
			}
		default:
			r.head++
			return op.cost, workload.StepCompute, false
		}
	}
	r.head, r.n = 0, 0
	return 0, 0, true
}

// The locks a request holds, by frame word — Abort receives only the
// frame —, each as its index in db.locks plus one.
const (
	wCustLock = iota
	wDistrictLock
)

// goOn is a phase's outcome when the transaction carries on.
const goOn workload.StepStatus = -1

// Phases (StepFrame.PC), each transaction's in the order of its body. A
// phase carries on to the next unless it sets f.PC; one that returns
// StepFault or StepBlock runs again.
const (
	// New-Order (clause 2.4). Like Silo's OCC, the fault-prone read phase
	// runs unlocked and warms every page the write phase will need, so the
	// critical section operates on resident pages.
	noParse     = iota // parse; the warehouse's tax rate and the customer's discount, each after its charge
	noIndex            // the customer's last-order index leaf, warmed by a lookup; the district's next order id …
	noGuess            // … a guess at this order's: its order row and lines
	noRead             // per item: probe, line charge, price and stock
	noLock             // the district lock
	noOrderID          // the order id, taken — or the abort: a full order table, or an unused item (clause 2.4.1.4)
	noLine             // per item: probe, line charge and the item's price …
	noStock            // … the stock row's quantity, year-to-date and order count …
	noOrderLine        // … and the order line
	noOrder            // the order row
	noCustLock         // the index writers' lock …
	noInsert           // … and the order as the customer's last, in the index

	// Payment (clause 2.5).
	pyParse     // parse; by last name, the index scan's charge
	pyName      // by last name: the scan, whose middle match is the customer
	pyRead      // read phase: the warehouse's, district's and customer's rows …
	pyHistory   // … and the history slot the append will fill
	pyLock      // the district lock; the warehouse's charge
	pyWarehouse // its year-to-date; the district's charge
	pyDistrict  // its year-to-date; the customer's charge
	pyCustomer  // its balance, year-to-date and payment count; the history slot, taken
	pyAppend    // the history record

	// Order-Status (clause 2.6; read-only).
	osParse    // parse; by last name, the scan's charge; the customer's charge
	osName     // by last name: the scan; the customer's charge
	osCustomer // the customer's balance
	osIndex    // the customer's last order, in the index; its charge and line count
	osLine     // per line: probe, charge and amount

	// Delivery (clause 2.7): per district, the oldest undelivered order.
	dlParse     // parse
	dlDistrict  // per district: probe …
	dlCandidate // … the oldest undelivered order and the district's next order id …
	dlNext      // … none to deliver, or the order's charge, customer and line count
	dlLine      // per line: the charge …
	dlAmount    // … and the amount; then the customer's row
	dlLock      // the district lock, and whether another Delivery claimed the order meanwhile
	dlCarrier   // the order's carrier
	dlCustomer  // the customer's balance and delivery count

	// Stock-Level (clause 2.8): read-only, read-committed, no lock.
	slParse    // parse; the district's charge and next order id
	slDistrict // the last 20 orders precede it
	slOrder    // per order: probe, charge and line count …
	slLine     // per line: the charge and the item …
	slItem     // … counted once: a new one's charge …
	slStock    // … and its stock quantity
)

// Begin implements workload.StepHandler. The record arrives as
// NextRequest left it: responses zeroed.
func (h stepper) Begin(f *workload.StepFrame, payload any) {
	tx := payload.(*Tx)
	if tx.run == nil {
		tx.run = new(txRun)
	}
	r := tx.run
	r.head, r.n, r.respBytes = 0, 0, 64
	switch tx.Class {
	case "NewOrder":
		f.PC, r.respBytes = noParse, 96
	case "Payment":
		f.PC = pyParse
	case "OrderStatus":
		f.PC, r.respBytes = osParse, 96
	case "Delivery":
		f.PC = dlParse
	case "StockLevel":
		f.PC = slParse
	default:
		panic(fmt.Sprintf("tpcc: unknown transaction %q", tx.Class))
	}
}

// Step implements workload.StepHandler: the queue, then the next phase,
// until something needs the scheduler.
func (h stepper) Step(ctx workload.StepCtx, f *workload.StepFrame, payload any) (any, int, sim.Time, workload.StepStatus) {
	tx := payload.(*Tx)
	var p workload.Page // the page a phase accesses
	for {
		if cycles, st, ok := tx.run.drain(ctx); !ok {
			return nil, 0, cycles, st
		}
		pc := f.PC
		f.PC++
		switch st := h.phase(ctx, f, pc, tx, &p); st {
		case goOn:
		case workload.StepDone:
			return tx, tx.run.respBytes, 0, st
		default:
			f.PC = pc
			return nil, 0, 0, st
		}
	}
}

// Abort implements workload.StepHandler: the request is over, and the
// locks it holds are released, each waking its first waiter (the
// scheduler ends its critical section).
func (h stepper) Abort(f *workload.StepFrame, _ error) {
	for _, held := range f.W[:wDistrictLock+1] {
		if held > 0 {
			h.db.locks[held-1].release()
		}
	}
}

// phase runs phase pc of tx, with f.PC already at the next one.
func (h stepper) phase(ctx workload.StepCtx, f *workload.StepFrame, pc uint64, tx *Tx, p *workload.Page) workload.StepStatus {
	db, cfg, r := h.db, &h.db.cfg, tx.run
	no, pay, ost, dl, sl := &tx.NewOrder, &tx.Payment, &tx.OrderStatus, &tx.Delivery, &tx.StockLevel
	switch pc {
	case noParse:
		r.charge(cfg.ParseCost)
		r.charge(cfg.RecordCost)
		r.touch(db.warehouse, db.wOff(no.W)+fWTax)
		r.charge(cfg.RecordCost)
		r.touch(db.customer, db.cOff(no.W, no.D, no.C)+fCDiscount)
		r.op.Lookup(uint64(db.cIdx(no.W, no.D, no.C)))
	case noIndex:
		if !db.byCust.Step(ctx, &r.op) {
			return workload.StepFault
		}
		r.read(db.district, db.dOff(no.W, no.D)+fDNextOID, &r.oid)
	case noGuess:
		if r.oid < cfg.OrderCapacity {
			r.touch(db.order, db.oOff(no.W, no.D, r.oid)+fOCID)
			for i := range no.Lines {
				r.touch(db.orderLine, db.olOff(no.W, no.D, r.oid, i)+fOLItem)
			}
		}
		r.i = 0
	case noRead:
		if r.i < len(no.Lines) {
			item := int(no.Lines[r.i].Item)
			r.probe()
			r.charge(cfg.LineCost)
			r.touch(db.item, db.iOff(item)+fIPrice)
			r.touch(db.stock, db.sOff(no.W, item)+fSQuantity)
			r.i, f.PC = r.i+1, noRead
		}
	case noLock:
		if !h.lock(ctx, f, wDistrictLock, int(db.dIdx(no.W, no.D))) {
			return workload.StepBlock
		}
	case noOrderID:
		if !p.Open(ctx, db.district, db.dOff(no.W, no.D)) {
			return workload.StepFault
		}
		// A full order table ends the run's orders for the district — an
		// abort rather than a write into the neighbour's —, and an unused
		// item failed its lookup in the read phase: nothing is written.
		if r.oid = int(p.U32(fDNextOID)); r.oid >= cfg.OrderCapacity || no.Invalid {
			db.Aborts.Inc()
			tx.NewOrderResp.Aborted = true
			h.unlock(ctx, f, wDistrictLock)
			return workload.StepDone
		}
		p.SetU32(fDNextOID, uint32(r.oid+1))
		r.i = 0
	case noLine:
		if r.i == len(no.Lines) {
			f.PC = noOrder
			break
		}
		r.probe()
		r.charge(cfg.LineCost)
		r.read(db.item, db.iOff(int(no.Lines[r.i].Item))+fIPrice, &r.price)
	case noStock:
		line := no.Lines[r.i]
		if !p.Open(ctx, db.stock, db.sOff(no.W, int(line.Item))) {
			return workload.StepFault
		}
		qty := p.U32(fSQuantity)
		if qty >= line.Qty+10 {
			qty -= line.Qty
		} else {
			qty = qty - line.Qty + 91
		}
		p.SetU32(fSQuantity, qty)
		p.SetU32(fSYtd, p.U32(fSYtd)+line.Qty)
		p.SetU32(fSOrderCnt, p.U32(fSOrderCnt)+1)
	case noOrderLine:
		line := no.Lines[r.i]
		if !p.Open(ctx, db.orderLine, db.olOff(no.W, no.D, r.oid, r.i)) {
			return workload.StepFault
		}
		amount := uint64(line.Qty) * uint64(r.price)
		p.SetU32(fOLItem, line.Item)
		p.SetU32(fOLQty, line.Qty)
		p.SetU64(fOLAmount, amount)
		p.SetU32(fOLSupply, uint32(no.W))
		tx.NewOrderResp.TotalC += amount
		r.i, f.PC = r.i+1, noLine
	case noOrder:
		if !p.Open(ctx, db.order, db.oOff(no.W, no.D, r.oid)) {
			return workload.StepFault
		}
		p.SetU32(fOCID, uint32(no.C))
		p.SetU32(fOOLCnt, uint32(len(no.Lines)))
		p.SetU32(fOCarrierID, 0)
		p.SetU32(fOEntryD, uint32(db.env.Now()))
	case noCustLock:
		if !h.lock(ctx, f, wCustLock, db.custLock) {
			return workload.StepBlock
		}
		r.op.Insert(uint64(db.cIdx(no.W, no.D, no.C)), uint64(r.oid))
	case noInsert:
		if !db.byCust.Step(ctx, &r.op) {
			return workload.StepFault
		}
		h.unlock(ctx, f, wCustLock)
		h.unlock(ctx, f, wDistrictLock)
		tx.NewOrderResp.OID = int32(r.oid)
		return workload.StepDone

	case pyParse:
		r.c = pay.C
		r.charge(cfg.ParseCost)
		if !pay.ByName {
			f.PC = pyRead
			break
		}
		r.charge(cfg.RecordCost)
		dIdx := db.dIdx(pay.W, pay.D)
		r.op.Range(db.nameKey(dIdx, pay.LastName, 0), db.nameKey(dIdx, pay.LastName, 0xFFF))
	case pyName:
		if !db.byName.Step(ctx, &r.op) {
			return workload.StepFault
		}
		if !h.middle(r) {
			return workload.StepDone
		}
	case pyRead:
		r.touch(db.warehouse, db.wOff(pay.W)+fWYtd)
		r.touch(db.district, db.dOff(pay.W, pay.D)+fDYtd)
		r.touch(db.customer, db.cOff(pay.W, pay.D, r.c)+fCBalance)
	case pyHistory:
		if r.slot = db.histCursor[db.dIdx(pay.W, pay.D)]; int(r.slot) < cfg.OrderCapacity {
			r.touch(db.history, db.hOff(pay.W, pay.D, int(r.slot)))
		}
	case pyLock:
		if !h.lock(ctx, f, wDistrictLock, int(db.dIdx(pay.W, pay.D))) {
			return workload.StepBlock
		}
		r.charge(cfg.RecordCost)
	case pyWarehouse:
		if !p.Open(ctx, db.warehouse, db.wOff(pay.W)) {
			return workload.StepFault
		}
		p.SetU64(fWYtd, p.U64(fWYtd)+pay.AmountC)
		r.charge(cfg.RecordCost)
	case pyDistrict:
		if !p.Open(ctx, db.district, db.dOff(pay.W, pay.D)) {
			return workload.StepFault
		}
		p.SetU64(fDYtd, p.U64(fDYtd)+pay.AmountC)
		r.charge(cfg.RecordCost)
	case pyCustomer:
		if !p.Open(ctx, db.customer, db.cOff(pay.W, pay.D, r.c)) {
			return workload.StepFault
		}
		bal := int64(p.U64(fCBalance)) - int64(pay.AmountC)
		p.SetU64(fCBalance, uint64(bal))
		p.SetU64(fCYtdPayment, p.U64(fCYtdPayment)+pay.AmountC)
		p.SetU32(fCPaymentCnt, p.U32(fCPaymentCnt)+1)
		tx.PaymentResp.BalanceC = bal
		cursor := &db.histCursor[db.dIdx(pay.W, pay.D)]
		if r.slot = *cursor; int(r.slot) >= cfg.OrderCapacity {
			h.unlock(ctx, f, wDistrictLock)
			return workload.StepDone
		}
		*cursor++
	case pyAppend:
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[:8], pay.AmountC)
		binary.LittleEndian.PutUint32(rec[8:12], uint32(r.c))
		var done uint64 // one page: the store makes one access
		if !workload.TryStore(ctx, db.history, db.hOff(pay.W, pay.D, int(r.slot)), rec[:], &done) {
			return workload.StepFault
		}
		h.unlock(ctx, f, wDistrictLock)
		return workload.StepDone

	case osParse:
		r.c = ost.C
		r.charge(cfg.ParseCost)
		r.charge(cfg.RecordCost)
		if !ost.ByName {
			f.PC = osCustomer
			break
		}
		dIdx := db.dIdx(ost.W, ost.D)
		r.op.Range(db.nameKey(dIdx, ost.LastName, 0), db.nameKey(dIdx, ost.LastName, 0xFFF))
	case osName:
		if !db.byName.Step(ctx, &r.op) {
			return workload.StepFault
		}
		if !h.middle(r) {
			return workload.StepDone
		}
		r.charge(cfg.RecordCost)
	case osCustomer:
		if !p.Open(ctx, db.customer, db.cOff(ost.W, ost.D, r.c)) {
			return workload.StepFault
		}
		tx.OrderStatusResp.BalanceC = int64(p.U64(fCBalance))
		r.op.Lookup(uint64(db.cIdx(ost.W, ost.D, r.c)))
	case osIndex:
		if !db.byCust.Step(ctx, &r.op) {
			return workload.StepFault
		}
		if !r.op.Found {
			return workload.StepDone
		}
		r.oid, r.l = int(int32(r.op.Val)), 0
		r.charge(cfg.RecordCost)
		r.read(db.order, db.oOff(ost.W, ost.D, r.oid)+fOOLCnt, &r.lines)
	case osLine:
		if r.l == r.lines {
			resp := &tx.OrderStatusResp
			resp.Found, resp.OID, resp.Lines = true, int32(r.oid), r.lines
			return workload.StepDone
		}
		r.probe()
		r.charge(cfg.LineCost)
		r.touch(db.orderLine, db.olOff(ost.W, ost.D, r.oid, r.l)+fOLAmount)
		r.l, f.PC = r.l+1, osLine

	case dlParse:
		r.charge(cfg.ParseCost)
		r.i = 0
	case dlDistrict:
		if r.i == districtsPerW {
			return workload.StepDone
		}
		r.probe()
	case dlCandidate:
		r.cand = db.nextDeliver[db.dIdx(dl.W, r.i)]
		r.read(db.district, db.dOff(dl.W, r.i)+fDNextOID, &r.oid)
	case dlNext:
		if int(r.cand) >= r.oid {
			r.i, f.PC = r.i+1, dlDistrict
			break
		}
		o := db.oOff(dl.W, r.i, int(r.cand))
		r.charge(cfg.RecordCost)
		r.read(db.order, o+fOCID, &r.c)
		r.read(db.order, o+fOOLCnt, &r.lines)
		r.l, r.sum = 0, 0
	case dlLine:
		if r.l == r.lines {
			r.touch(db.customer, db.cOff(dl.W, r.i, r.c)+fCBalance)
			f.PC = dlLock
			break
		}
		r.charge(cfg.LineCost)
	case dlAmount:
		if !p.Open(ctx, db.orderLine, db.olOff(dl.W, r.i, int(r.cand), r.l)) {
			return workload.StepFault
		}
		r.sum += p.U64(fOLAmount)
		r.l, f.PC = r.l+1, dlLine
	case dlLock:
		dIdx := db.dIdx(dl.W, r.i)
		if !h.lock(ctx, f, wDistrictLock, int(dIdx)) {
			return workload.StepBlock
		}
		// A Delivery that claimed the order while this one read leaves it
		// to the district's next Delivery.
		if db.nextDeliver[dIdx] != r.cand {
			h.unlock(ctx, f, wDistrictLock)
			r.i, f.PC = r.i+1, dlDistrict
			break
		}
		db.nextDeliver[dIdx] = r.cand + 1
	case dlCarrier:
		if !p.Open(ctx, db.order, db.oOff(dl.W, r.i, int(r.cand))) {
			return workload.StepFault
		}
		p.SetU32(fOCarrierID, dl.Carrier)
	case dlCustomer:
		if !p.Open(ctx, db.customer, db.cOff(dl.W, r.i, r.c)) {
			return workload.StepFault
		}
		p.SetU64(fCBalance, uint64(int64(p.U64(fCBalance))+int64(r.sum)))
		p.SetU32(fCDeliveryCnt, p.U32(fCDeliveryCnt)+1)
		tx.DeliveryResp.Delivered++
		h.unlock(ctx, f, wDistrictLock)
		r.i, f.PC = r.i+1, dlDistrict

	case slParse:
		clear(r.seen[:])
		r.charge(cfg.ParseCost)
		r.charge(cfg.RecordCost)
		r.read(db.district, db.dOff(sl.W, sl.D)+fDNextOID, &r.end)
	case slDistrict:
		r.i = max(r.end-20, 0)
	case slOrder:
		if r.i >= r.end {
			return workload.StepDone
		}
		r.probe()
		r.charge(cfg.RecordCost)
		r.read(db.order, db.oOff(sl.W, sl.D, r.i)+fOOLCnt, &r.lines)
		r.l = 0
	case slLine:
		if r.l == r.lines {
			r.i, f.PC = r.i+1, slOrder
			break
		}
		r.charge(cfg.LineCost)
		r.read(db.orderLine, db.olOff(sl.W, sl.D, r.i, r.l)+fOLItem, &r.item)
	case slItem:
		r.l, f.PC = r.l+1, slLine
		if r.seen.add(uint32(r.item)) {
			r.charge(cfg.RecordCost)
			f.PC = slStock
		}
	case slStock:
		if !p.Open(ctx, db.stock, db.sOff(sl.W, r.item)) {
			return workload.StepFault
		}
		if p.U32(fSQuantity) < sl.Threshold {
			tx.StockLevelResp.Low++
		}
		f.PC = slLine
	}
	return goOn
}

// middle picks the by-name customer from the index scan's matches,
// ordered by id (standing in for first-name order): the middle one, per
// clause 2.5.2.2. With none the transaction ends, counted as a miss.
func (h stepper) middle(r *txRun) bool {
	if len(r.op.Vals) == 0 {
		h.db.NameMisses.Inc()
		return false
	}
	r.c = int(r.op.Vals[len(r.op.Vals)/2] % uint64(h.db.cfg.CustomersPerDistrict))
	return true
}

// lock takes lock m of db.locks for the request, into frame word w, or
// counts a conflict and registers the request's wake with it: the caller
// returns StepBlock, and its phase runs again once woken.
func (h stepper) lock(ctx workload.StepCtx, f *workload.StepFrame, w, m int) bool {
	l := &h.db.locks[m]
	if l.held {
		h.db.Conflicts.Inc()
		ctx.Block(l.enqueue)
		return false
	}
	l.held, f.W[w] = true, uint64(m)+1
	// Holding a lock disables preemption (lest the holder be parked
	// behind the central queue while contenders spin — convoy collapse).
	ctx.CriticalEnter()
	return true
}

func (h stepper) unlock(ctx workload.StepCtx, f *workload.StepFrame, w int) {
	ctx.CriticalExit()
	h.db.locks[f.W[w]-1].release()
	f.W[w] = 0
}
