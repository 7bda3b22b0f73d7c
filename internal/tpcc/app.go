package tpcc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Mix is the paper's TPC-C transaction mix (§5.2): New-Order 44.5%,
// Payment 43.1%, Order-Status 4.1%, Delivery 4.2%, Stock-Level 4.1%.
var Mix = struct {
	NewOrder, Payment, OrderStatus, Delivery, StockLevel float64
}{0.445, 0.431, 0.041, 0.042, 0.041}

// Tx is the one message record of a transaction: Class names which of
// the five inputs NextRequest filled (and is the request's latency
// class), and the handler puts that transaction's response beside it,
// keeping what it needs between steps in run.
type Tx struct {
	Class string

	NewOrder    NewOrderReq
	Payment     PaymentReq
	OrderStatus OrderStatusReq
	Delivery    DeliveryReq
	StockLevel  StockLevelReq

	NewOrderResp    NewOrderResp
	PaymentResp     PaymentResp
	OrderStatusResp OrderStatusResp
	DeliveryResp    DeliveryResp
	StockLevelResp  StockLevelResp

	lines [maxLines]NewOrderLine // backs NewOrder.Lines
	run   *txRun                 // kept across recycles (step.go)
}

// NewOrderLine is one item of a NewOrder request.
type NewOrderLine struct{ Item, Qty uint32 }

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

// DeliveryReq is the Delivery transaction input.
type DeliveryReq struct {
	W       int
	Carrier uint32
}

// DeliveryResp reports how many districts had an order to deliver.
type DeliveryResp struct{ Delivered int }

// StockLevelReq is the Stock-Level transaction input.
type StockLevelReq struct {
	W, D      int
	Threshold uint32
}

// StockLevelResp reports the low-stock count.
type StockLevelResp struct{ Low int }

// NextRequest implements workload.App: draw a transaction per the mix,
// with TPC-C's NURand customer/item selection and the 1% invalid-item
// rule for New-Orders.
func (db *DB) NextRequest(rng *sim.RNG, reuse any) (any, int) {
	tx := workload.Record[Tx](reuse)
	*tx = Tx{run: tx.run}
	w := rng.Intn(db.cfg.Warehouses)
	d := rng.Intn(districtsPerW)
	r := rng.Float64()
	switch {
	case r < Mix.NewOrder:
		c := nurand(rng, 1023, db.nurandCCust, 0, db.cfg.CustomersPerDistrict-1)
		lines := tx.lines[:5+rng.Intn(11)]
		for i := range lines {
			lines[i] = NewOrderLine{
				Item: uint32(nurand(rng, 8191, db.nurandCItem, 0, db.cfg.ItemCount-1)),
				Qty:  uint32(1 + rng.Intn(10)),
			}
		}
		tx.Class, tx.NewOrder = "NewOrder", NewOrderReq{W: w, D: d, C: c, Lines: lines, Invalid: rng.Bool(0.01)}
		return tx, 64 + len(lines)*8
	case r < Mix.NewOrder+Mix.Payment:
		c := nurand(rng, 1023, db.nurandCCust, 0, db.cfg.CustomersPerDistrict-1)
		req := PaymentReq{W: w, D: d, C: c, AmountC: uint64(100 + rng.Intn(500000))}
		if rng.Bool(0.6) { // clause 2.5.2.2: 60% select by last name
			req.ByName, req.LastName = true, nurand(rng, 255, db.nurandCCust&255, 0, 999)
		}
		tx.Class, tx.Payment = "Payment", req
		return tx, 96
	case r < Mix.NewOrder+Mix.Payment+Mix.OrderStatus:
		c := nurand(rng, 1023, db.nurandCCust, 0, db.cfg.CustomersPerDistrict-1)
		req := OrderStatusReq{W: w, D: d, C: c}
		if rng.Bool(0.6) {
			req.ByName, req.LastName = true, nurand(rng, 255, db.nurandCCust&255, 0, 999)
		}
		tx.Class, tx.OrderStatus = "OrderStatus", req
	case r < Mix.NewOrder+Mix.Payment+Mix.OrderStatus+Mix.Delivery:
		tx.Class, tx.Delivery = "Delivery", DeliveryReq{W: w, Carrier: uint32(1 + rng.Intn(10))}
	default:
		tx.Class, tx.StockLevel = "StockLevel", StockLevelReq{W: w, D: d, Threshold: uint32(10 + rng.Intn(11))}
	}
	return tx, 64
}

// StepHandler implements workload.App.
func (db *DB) StepHandler() workload.StepHandler { return stepper{db} }

// Classify labels transactions for per-class latency reporting.
func (db *DB) Classify(payload any) string { return payload.(*Tx).Class }

// Name implements workload.App.
func (db *DB) Name() string { return fmt.Sprintf("silo-tpcc-W%d", db.cfg.Warehouses) }
