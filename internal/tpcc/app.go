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
// class), and the handler puts that transaction's response beside it.
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

	lines [15]NewOrderLine // backs NewOrder.Lines
}

// NextRequest implements workload.App: draw a transaction per the mix,
// with TPC-C's NURand customer/item selection and the 1% invalid-item
// rule for New-Orders.
func (db *DB) NextRequest(rng *sim.RNG, reuse any) (any, int) {
	tx := workload.Record[Tx](reuse)
	*tx = Tx{}
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
			req.ByName = true
			req.LastName = nurand(rng, 255, db.nurandCCust&255, 0, 999)
		}
		tx.Class, tx.Payment = "Payment", req
		return tx, 96
	case r < Mix.NewOrder+Mix.Payment+Mix.OrderStatus:
		c := nurand(rng, 1023, db.nurandCCust, 0, db.cfg.CustomersPerDistrict-1)
		req := OrderStatusReq{W: w, D: d, C: c}
		if rng.Bool(0.6) {
			req.ByName = true
			req.LastName = nurand(rng, 255, db.nurandCCust&255, 0, 999)
		}
		tx.Class, tx.OrderStatus = "OrderStatus", req
	case r < Mix.NewOrder+Mix.Payment+Mix.OrderStatus+Mix.Delivery:
		tx.Class, tx.Delivery = "Delivery", DeliveryReq{W: w, Carrier: uint32(1 + rng.Intn(10))}
	default:
		tx.Class, tx.StockLevel = "StockLevel", StockLevelReq{W: w, D: d, Threshold: uint32(10 + rng.Intn(11))}
	}
	return tx, 64
}

// Handler implements workload.App: the response goes into the request's
// own record.
func (db *DB) Handler() workload.Handler {
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

// Classify labels transactions for per-class latency reporting.
func (db *DB) Classify(payload any) string { return payload.(*Tx).Class }

// Name implements workload.App.
func (db *DB) Name() string { return fmt.Sprintf("silo-tpcc-W%d", db.cfg.Warehouses) }
