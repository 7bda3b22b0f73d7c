package tpcc

import (
	"encoding/binary"
	"fmt"

	"repro/internal/paging"
)

// CheckConsistency audits the TPC-C consistency conditions that must
// hold in any quiescent state (clause 3.3.2): W_YTD = Σ D_YTD for every
// warehouse, district order-id monotonicity, and delivery-cursor bounds.
// It reads the database directly (frames or backing store), bypassing
// simulated timing, so it can run after a simulation completes.
func (db *DB) CheckConsistency() error {
	read64 := func(sp *paging.Space, off int64) uint64 { // a u32 field is its low half
		var b [8]byte
		sp.ReadDirect(off, b[:])
		return binary.LittleEndian.Uint64(b[:])
	}
	for w := 0; w < db.cfg.Warehouses; w++ {
		wYtd := read64(db.warehouse, db.wOff(w)+fWYtd)
		var dSum uint64
		for d := 0; d < districtsPerW; d++ {
			dSum += read64(db.district, db.dOff(w, d)+fDYtd)

			next := uint32(read64(db.district, db.dOff(w, d)+fDNextOID))
			if int(next) < db.cfg.InitialOrders {
				return fmt.Errorf("tpcc: W%d D%d next order id %d below initial %d",
					w, d, next, db.cfg.InitialOrders)
			}
			if int(next) > db.cfg.OrderCapacity {
				return fmt.Errorf("tpcc: W%d D%d next order id %d beyond capacity", w, d, next)
			}
			dIdx := db.dIdx(w, d)
			if cur := db.nextDeliver[dIdx]; cur < 0 || cur > int32(next) {
				return fmt.Errorf("tpcc: W%d D%d delivery cursor %d outside [0,%d]", w, d, cur, next)
			}
		}
		if wYtd != dSum {
			return fmt.Errorf("tpcc: W%d YTD %d != sum of district YTDs %d", w, wYtd, dSum)
		}
	}
	return nil
}
