// Package tpcc is the Silo stand-in: an in-memory OLTP engine running
// the five TPC-C transactions over tables stored in paged remote memory.
// The paper's Silo experiment uses TPC-C at scaling factor 200 (~20 GB);
// this implementation keeps the per-warehouse layout and per-transaction
// record-touch counts of TPC-C (so the page-fault profile matches) while
// letting the scale factor be chosen to fit the machine.
//
// Concurrency control is per-district mutual exclusion with cooperative
// waiting. Silo proper uses OCC; at TPC-C's district-partitioned access
// pattern the two admit the same parallelism, and the substitution keeps
// transactions serializable under the simulator's interleaving (see
// DESIGN.md). Stock-Level runs without the lock at read-committed
// isolation, exactly as the TPC-C specification permits.
package tpcc

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Record strides (bytes), padded from the TPC-C row sizes.
const (
	warehouseSize = 128
	districtSize  = 128
	customerSize  = 704
	itemSize      = 96
	stockSize     = 320
	orderSize     = 32
	orderLineSize = 64
	historySize   = 64

	districtsPerW = 10
	maxLines      = 15
)

// Config sizes the database. Defaults follow TPC-C; tests shrink them.
type Config struct {
	Warehouses int
	// CustomersPerDistrict, ItemCount and InitialOrders default to the
	// TPC-C values (3000, 100000, 3000).
	CustomersPerDistrict int
	ItemCount            int
	InitialOrders        int
	// OrderCapacity bounds per-district order slots (initial + new).
	OrderCapacity int

	// RecordCost is the CPU charge per record access, LineCost per order
	// line processed and ParseCost per request parsed.
	RecordCost, LineCost, ParseCost sim.Time
}

// DefaultConfig returns a TPC-C database with the given warehouse count.
func DefaultConfig(warehouses int) Config {
	return Config{
		Warehouses:           warehouses,
		CustomersPerDistrict: 3000,
		ItemCount:            100000,
		InitialOrders:        3000,
		OrderCapacity:        3000 + 4096,
		RecordCost:           1200, // Masstree-scale index traversal + access
		LineCost:             600,
		ParseCost:            1000,
	}
}

// DB is the TPC-C database.
type DB struct {
	cfg Config
	env *sim.Env // the clock order entry dates are read from
	mgr *paging.Manager

	warehouse *paging.Space
	district  *paging.Space
	customer  *paging.Space
	item      *paging.Space
	stock     *paging.Space
	order     *paging.Space
	orderLine *paging.Space
	history   *paging.Space

	// byName maps (district, last name) to customers — TPC-C's secondary
	// customer index, used by the 60% of Payment/Order-Status requests
	// that select by last name (clause 2.5.2.2). byCust maps a customer
	// to its most recent order id (the Order-Status index). Both are
	// paged B+trees, so index traversals fault like Silo's Masstree
	// would over disaggregated memory.
	byName, byCust *btree.Tree

	// In-core superblock state. locks holds one per district and, last,
	// custLock, serializing byCust writers: B+tree inserts are not safe
	// under concurrent structural modification (Silo's Masstree uses
	// per-node latches). Readers tolerate concurrent inserts (at worst a
	// transient miss, read-committed semantics).
	locks       []mutex
	custLock    int
	nextDeliver []int32 // per district: oldest undelivered order id
	histCursor  []int32 // per district: next history slot

	// Aborts counts New-Orders aborted (an unused item, TPC-C's 1% rule,
	// or a full order table); NameMisses, by-last-name lookups that
	// matched no customer; Conflicts, lock waits (contention indicator).
	Aborts, NameMisses, Conflicts stats.Counter

	nurandCCust, nurandCItem int
}

// mutex is a scheduler-cooperative lock: a waiter hands enqueue its wake
// through workload.StepCtx.Block, so under Adios a lock wait yields the
// core (the unithread way) and under busy-wait systems it spins — never
// wedging the worker whose request holds the lock. Which locks a request
// holds is in its step frame (step.go).
type mutex struct {
	held    bool
	waiters []func()
	enqueue func(wake func()) // bound once (newMutexes): a wait allocates nothing
}

// newMutexes returns n free mutexes.
func newMutexes(n int) []mutex {
	ms := make([]mutex, n)
	for i := range ms {
		m := &ms[i]
		m.enqueue = func(wake func()) { m.waiters = append(m.waiters, wake) }
	}
	return ms
}

// release frees m and wakes its first waiter, whose lock phase runs again.
func (m *mutex) release() {
	m.held = false
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters = m.waiters[:copy(m.waiters, m.waiters[1:])]
		w()
	}
}

// layout sizes the database: the page-aligned bytes of the eight tables
// in allocation order (warehouse, district, customer, item, stock,
// order, order line, history) and the page capacity of the by-name
// index; the by-customer index gets twice that. New allocates exactly
// these and Footprint adds them, so the two agree.
func layout(cfg Config) (tables [8]int64, idxPages int64) {
	W := int64(cfg.Warehouses)
	D := W * districtsPerW
	C := D * int64(cfg.CustomersPerDistrict)
	orders := D * int64(cfg.OrderCapacity)
	for i, n := range [8]int64{W * warehouseSize, D * districtSize, C * customerSize,
		int64(cfg.ItemCount) * itemSize, W * int64(cfg.ItemCount) * stockSize,
		orders * orderSize, orders * maxLines * orderLineSize, orders * historySize} {
		tables[i] = paging.PageAlign(n)
	}
	return tables, C/int64(btree.MaxEntries/2) + 64
}

// Footprint is what TotalBytes will report for a database of cfg, for
// sizing local DRAM without building one.
func Footprint(cfg Config) int64 {
	tables, idxPages := layout(cfg)
	total := 3 * idxPages * paging.PageSize
	for _, b := range tables {
		total += b
	}
	return total
}

// New builds and populates the database.
func New(env *sim.Env, mgr *paging.Manager, node memnode.Allocator, cfg Config) *DB {
	if cfg.Warehouses <= 0 {
		panic("tpcc: need at least one warehouse")
	}
	db := &DB{cfg: cfg, env: env, mgr: mgr}
	tables, idxPages := layout(cfg)
	alloc := func(i int, name string) *paging.Space {
		return mgr.NewSpace(name, node.MustAlloc("tpcc/"+name, tables[i]))
	}
	db.warehouse = alloc(0, "warehouse")
	db.district = alloc(1, "district")
	db.customer = alloc(2, "customer")
	db.item = alloc(3, "item")
	db.stock = alloc(4, "stock")
	db.order = alloc(5, "order")
	db.orderLine = alloc(6, "orderline")
	db.history = alloc(7, "history")

	D := cfg.Warehouses * districtsPerW
	db.locks, db.custLock = newMutexes(D+1), D
	db.nextDeliver, db.histCursor = make([]int32, D), make([]int32, D)
	db.byName = btree.New(mgr, node, "tpcc/byname", idxPages)
	db.byCust = btree.New(mgr, node, "tpcc/bycust", idxPages*2)

	// NURand constants are chosen once per database, per the spec.
	rng := sim.NewRNG(12345)
	db.nurandCCust, db.nurandCItem = rng.Intn(1024), rng.Intn(8192)

	db.populate(rng)
	return db
}

// Record indexes and offsets. An order's row, lines and history slot share
// its index, oIdx.
func (db *DB) wOff(w int) int64    { return int64(w) * warehouseSize }
func (db *DB) dIdx(w, d int) int64 { return int64(w)*districtsPerW + int64(d) }
func (db *DB) dOff(w, d int) int64 { return db.dIdx(w, d) * districtSize }
func (db *DB) cIdx(w, d, c int) int64 {
	return db.dIdx(w, d)*int64(db.cfg.CustomersPerDistrict) + int64(c)
}
func (db *DB) cOff(w, d, c int) int64 { return db.cIdx(w, d, c) * customerSize }
func (db *DB) iOff(i int) int64       { return int64(i) * itemSize }
func (db *DB) sOff(w, i int) int64    { return (int64(w)*int64(db.cfg.ItemCount) + int64(i)) * stockSize }
func (db *DB) oIdx(w, d, o int) int64 { return db.dIdx(w, d)*int64(db.cfg.OrderCapacity) + int64(o) }
func (db *DB) oOff(w, d, o int) int64 { return db.oIdx(w, d, o) * orderSize }
func (db *DB) olOff(w, d, o, l int) int64 {
	return (db.oIdx(w, d, o)*maxLines + int64(l)) * orderLineSize
}
func (db *DB) hOff(w, d, h int) int64 { return db.oIdx(w, d, h) * historySize }

// Field offsets within records (all little-endian u32/u64).
const (
	fWYtd = 0 // u64 cents
	fWTax = 8 // u32 basis points

	fDNextOID = 0  // u32
	fDYtd     = 8  // u64 cents
	fDTax     = 16 // u32 basis points

	fCBalance     = 0  // i64 cents
	fCYtdPayment  = 8  // u64 cents
	fCPaymentCnt  = 16 // u32
	fCDeliveryCnt = 20 // u32
	fCDiscount    = 24 // u32 basis points

	fIPrice = 0 // u32 cents

	fSQuantity  = 0  // u32
	fSYtd       = 4  // u32
	fSOrderCnt  = 8  // u32
	fSRemoteCnt = 12 // u32

	fOCID       = 0  // u32 customer id
	fOOLCnt     = 4  // u32 line count
	fOCarrierID = 8  // u32, 0 = undelivered
	fOEntryD    = 12 // u32 entry timestamp (low bits of sim time)

	fOLItem   = 0  // u32 item id
	fOLQty    = 4  // u32
	fOLAmount = 8  // u64 cents
	fOLSupply = 16 // u32 supplying warehouse
)

// populate writes the initial database straight into the backing regions
// (set-up time, not simulated): one SetupBytes view per table, each field
// one little-endian store, the set-up RNG drawn in a fixed order through
// bounds precomputed once, so no draw divides.
func (db *DB) populate(rng *sim.RNG) {
	price, tax, quantity, discount := sim.NewBound(9900), sim.NewBound(2001), sim.NewBound(91), sim.NewBound(5001)
	lineCount, carrier, itemID, amount := sim.NewBound(11), sim.NewBound(10), sim.NewBound(db.cfg.ItemCount), sim.NewBound(999900)
	delivered := db.cfg.InitialOrders * 7 / 10 // the first 70% of each district's orders
	W := db.cfg.Warehouses
	C := int64(W) * districtsPerW * int64(db.cfg.CustomersPerDistrict)
	lastOrder := make([]int64, C)  // per customer: its last initial order + 1, or 0
	initialBalance := int64(-1000) // C_BALANCE = -$10.00
	le := binary.LittleEndian
	warehouse, district, customer := db.warehouse.SetupBytes(), db.district.SetupBytes(), db.customer.SetupBytes()
	item, stock := db.item.SetupBytes(), db.stock.SetupBytes()
	order, orderLine := db.order.SetupBytes(), db.orderLine.SetupBytes()

	for i := 0; i < db.cfg.ItemCount; i++ {
		le.PutUint32(item[db.iOff(i)+fIPrice:], uint32(100+rng.Draw(price))) // $1..$100
	}
	for w := 0; w < db.cfg.Warehouses; w++ {
		le.PutUint64(warehouse[db.wOff(w)+fWYtd:], 30_000_000*districtsPerW) // $300k
		le.PutUint32(warehouse[db.wOff(w)+fWTax:], uint32(rng.Draw(tax)))
		for i := 0; i < db.cfg.ItemCount; i++ {
			le.PutUint32(stock[db.sOff(w, i)+fSQuantity:], uint32(10+rng.Draw(quantity)))
		}
		for d := 0; d < districtsPerW; d++ {
			le.PutUint32(district[db.dOff(w, d)+fDNextOID:], uint32(db.cfg.InitialOrders))
			le.PutUint64(district[db.dOff(w, d)+fDYtd:], 30_000_000) // $30k
			le.PutUint32(district[db.dOff(w, d)+fDTax:], uint32(rng.Draw(tax)))
			for c := 0; c < db.cfg.CustomersPerDistrict; c++ {
				le.PutUint64(customer[db.cOff(w, d, c)+fCBalance:], uint64(initialBalance))
				le.PutUint32(customer[db.cOff(w, d, c)+fCDiscount:], uint32(rng.Draw(discount)))
			}
			for o := 0; o < db.cfg.InitialOrders; o++ {
				cID := o % db.cfg.CustomersPerDistrict // one order per customer, permuted trivially
				lines := 5 + rng.Draw(lineCount)
				rec := order[db.oOff(w, d, o):]
				le.PutUint32(rec[fOCID:], uint32(cID))
				le.PutUint32(rec[fOOLCnt:], uint32(lines))
				if o < delivered {
					le.PutUint32(rec[fOCarrierID:], uint32(1+rng.Draw(carrier))) // the rest keep carrier 0
				}
				for l := 0; l < lines; l++ {
					line := orderLine[db.olOff(w, d, o, l):]
					le.PutUint32(line[fOLItem:], uint32(rng.Draw(itemID)))
					le.PutUint32(line[fOLQty:], 5)
					le.PutUint64(line[fOLAmount:], uint64(rng.Draw(amount)+1))
					le.PutUint32(line[fOLSupply:], uint32(w))
				}
				lastOrder[db.cIdx(w, d, cID)] = int64(o) + 1
			}
			db.nextDeliver[db.dIdx(w, d)] = int32(delivered)
		}
	}

	// Bulk-load the secondary indexes (sorted key order). lastName depends
	// on the customer number alone, so one ordering of a district's
	// customers by (last name, number) serves every district.
	byLast := make([]int, db.cfg.CustomersPerDistrict)
	for c := range byLast {
		byLast[c] = c
	}
	slices.SortFunc(byLast, func(a, b int) int {
		return cmp.Or(cmp.Compare(lastName(a), lastName(b)), cmp.Compare(a, b))
	})
	nameKeys, nameVals := make([]uint64, 0, C), make([]uint64, 0, C)
	for w := 0; w < W; w++ {
		for d := 0; d < districtsPerW; d++ {
			dIdx := db.dIdx(w, d)
			for _, c := range byLast {
				nameKeys = append(nameKeys, db.nameKey(dIdx, lastName(c), c))
				nameVals = append(nameVals, uint64(db.cIdx(w, d, c)))
			}
		}
	}
	db.byName.BulkLoad(nameKeys, nameVals)

	custKeys, custVals := make([]uint64, 0, C), make([]uint64, 0, C)
	for cIdx, last := range lastOrder {
		if last > 0 {
			custKeys = append(custKeys, uint64(cIdx))
			custVals = append(custVals, uint64(last-1))
		}
	}
	db.byCust.BulkLoad(custKeys, custVals)
}

// TotalBytes returns the database footprint across all spaces,
// including the paged secondary indexes.
func (db *DB) TotalBytes() int64 {
	return db.warehouse.Size() + db.district.Size() + db.customer.Size() +
		db.item.Size() + db.stock.Size() + db.order.Size() +
		db.orderLine.Size() + db.history.Size() +
		db.byName.Space().Size() + db.byCust.Space().Size()
}

// WarmCache preloads table prefixes proportionally to their sizes until
// the frame pool reaches steady state.
func (db *DB) WarmCache() {
	db.mgr.WarmSpaces(db.TotalBytes(), db.warehouse, db.district, db.customer,
		db.item, db.stock, db.order, db.orderLine, db.history)
}

// lastName returns the deterministic last-name id (0..999) of customer
// c, standing in for TPC-C's syllable-generated C_LAST strings.
func lastName(c int) int {
	return int((uint64(c) * 2654435761) % 1000)
}

// nameKey builds the byName index key: (district, lastName, customer).
func (db *DB) nameKey(dIdx int64, last, c int) uint64 {
	return uint64(dIdx)<<24 | uint64(last)<<12 | uint64(c)&0xFFF
}

// NURand is the TPC-C non-uniform random function (clause 2.1.6).
func nurand(rng *sim.RNG, a, c, x, y int) int {
	return (((rng.Intn(a+1) | (x + rng.Intn(y-x+1))) + c) % (y - x + 1)) + x
}

func (db *DB) String() string {
	return fmt.Sprintf("tpcc(W=%d, %.1f MiB)", db.cfg.Warehouses, float64(db.TotalBytes())/(1<<20))
}
