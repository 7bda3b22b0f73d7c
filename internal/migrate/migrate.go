// Package migrate implements deterministic online page migration:
// adaptive placement of hot pages across memory nodes. It observes the
// paging hot paths through the paging.Migrator hooks (per-page heat
// with epoch-decayed counters, per-node fault counts), detects load
// imbalance at event-driven epoch boundaries — no RNG, no wall clock —
// and plans migrations of the hottest pages from the overloaded node to
// the least-loaded live node. It does not move pages itself: it is a
// planner over the re-home engine in paging (paging.Rehomer, the same
// engine crash repair feeds), which copies each planned page at the
// configured bandwidth on QPs of its own and re-points the primary
// slot of the owner table.
//
// In-flight correctness is split the same way. The engine dual-applies
// write-backs that start while a copy is in flight, so the new home
// never holds stale bytes, and a landing that retires a live copy
// while a fetch of the page is in flight is an oracle violation
// (migrate/stale-read) rather than a silent stale install. The planner
// supplies the three answers that are migration's own: a job planned
// under conditions that no longer hold is not started; a durable copy
// lands only once the page has no fetch or write-back in flight (and is
// dropped if the world moved meanwhile); a node death mid-copy drops
// the job — failover and repair own recovery — where any other error
// retries it. A destination without capacity is never planned.
package migrate

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config tunes the migration subsystem. The zero value is disabled;
// New fills zero fields of an enabled config with the defaults below.
type Config struct {
	// Enabled arms the subsystem. Disabled configs build nothing: runs
	// are byte-identical to builds without migration support.
	Enabled bool
	// Epoch is the heat-decay / planning interval (default 100 µs).
	Epoch sim.Time
	// HotThreshold is the minimum decayed heat for a page to be
	// migration-eligible (default 4).
	HotThreshold int
	// Bandwidth caps copy traffic in bytes per cycle, exactly like
	// repair pacing (default 0.5 B/cy).
	Bandwidth float64
	// Imbalance is the max/mean per-node fault ratio at or above which
	// an epoch plans migrations (default 1.3).
	Imbalance float64
	// MaxMoves bounds migrations planned per epoch (default 64).
	MaxMoves int
	// MinFaults is the minimum fault count on the hottest node per
	// epoch before planning triggers — below it the sample is noise
	// (default 64).
	MinFaults int
}

// DefaultConfig returns the calibrated migration configuration.
func DefaultConfig() Config {
	return Config{
		Enabled:      true,
		Epoch:        sim.Micros(100),
		HotThreshold: 4,
		Bandwidth:    0.5,
		Imbalance:    1.3,
		MaxMoves:     64,
		MinFaults:    64,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.Epoch <= 0 {
		c.Epoch = def.Epoch
	}
	if c.HotThreshold <= 0 {
		c.HotThreshold = def.HotThreshold
	}
	if c.Bandwidth <= 0 {
		c.Bandwidth = def.Bandwidth
	}
	if c.Imbalance <= 0 {
		c.Imbalance = def.Imbalance
	}
	if c.MaxMoves <= 0 {
		c.MaxMoves = def.MaxMoves
	}
	if c.MinFaults <= 0 {
		c.MinFaults = def.MinFaults
	}
	return c
}

// pageKey identifies one page of one space.
type pageKey struct {
	space int32
	vpn   int64
}

// Migrator is the assembled migration subsystem: heat tracker and
// epoch planner, feeding the re-home engine it embeds. It implements
// paging.Migrator (the heat hooks) and paging.RehomePlanner.
type Migrator struct {
	*paging.Rehomer
	m     *paging.Manager
	mem   *memnode.Cluster
	cfg   Config
	nodes int

	et *sim.Task // epoch ticker

	// heats holds one saturating decayed counter per page, indexed by
	// space id then vpn; epochFaults counts fetch posts per node within
	// the current epoch. Both are pure observations of the hot-path
	// hooks — no RNG, no wall clock.
	heats       [][]uint16
	epochFaults []int64

	// queued marks the pages with a job on the engine's queue or in
	// flight; every job moves a primary (slot 0) from Src, its owner at
	// plan time, to Dst.
	queued map[pageKey]bool

	// PagesMoved/BytesMoved count landed migrations; Planned counts
	// jobs the epoch planner queued; Deferred counts landings that
	// waited out an in-flight page; Aborted counts jobs dropped (node
	// death mid-copy, owner changed, capacity gone); Epochs counts epoch
	// boundaries. Fabric retries are the engine's Retries.
	PagesMoved stats.Counter
	BytesMoved stats.Counter
	Planned    stats.Counter
	Deferred   stats.Counter
	Aborted    stats.Counter
	Epochs     stats.Counter

	// MigrLat records, per landed migration, plan time → owner flip.
	MigrLat *stats.Histogram
}

// New builds the migrator and its engine, on QPs of its own over fab,
// and starts the epoch ticker. Zero cfg fields take defaults.
func New(m *paging.Manager, mem *memnode.Cluster, fab rdma.Fabric, cfg Config) *Migrator {
	cfg = cfg.withDefaults()
	mg := &Migrator{
		m:           m,
		mem:         mem,
		cfg:         cfg,
		nodes:       mem.NumNodes(),
		epochFaults: make([]int64, mem.NumNodes()),
		queued:      make(map[pageKey]bool),
		MigrLat:     stats.NewHistogram(),
	}
	mg.Rehomer = paging.NewRehomer(m, "migrate", fab, cfg.Bandwidth, mg)
	mg.et = sim.NewTask(m.Env(), "migrate-epoch", mg.epoch)
	mg.et.FireAfter(cfg.Epoch)
	return mg
}

// ---- paging.Migrator hooks (hot path) ----

// heat returns the space's heat array, sized on first use.
func (mg *Migrator) heat(s *paging.Space) []uint16 {
	id := int(s.ID())
	for id >= len(mg.heats) {
		mg.heats = append(mg.heats, nil)
	}
	if mg.heats[id] == nil {
		mg.heats[id] = make([]uint16, s.Pages())
	}
	return mg.heats[id]
}

// bump adds w to a saturating heat counter.
func bump(h []uint16, vpn int64, w uint16) {
	if hv := h[vpn]; hv <= 0xffff-w {
		h[vpn] = hv + w
	} else {
		h[vpn] = 0xffff
	}
}

// RecordFault observes a fetch post: demand misses weigh 8, async
// fills 1, and both count toward the target node's epoch load.
func (mg *Migrator) RecordFault(s *paging.Space, vpn int64, node int, demand bool) {
	mg.epochFaults[node]++
	w := uint16(1)
	if demand {
		w = 8
	}
	bump(mg.heat(s), vpn, w)
}

// RecordTouch observes a resident hit (weight 1).
func (mg *Migrator) RecordTouch(s *paging.Space, vpn int64) {
	bump(mg.heat(s), vpn, 1)
}

// ---- epoch planner ----

// epoch is the recurring epoch-boundary event: plan against the
// epoch's fault counts, then decay heat and reset the counts.
func (mg *Migrator) epoch() {
	mg.Epochs.Inc()
	mg.plan()
	for _, h := range mg.heats {
		for i := range h {
			h[i] >>= 1
		}
	}
	for i := range mg.epochFaults {
		mg.epochFaults[i] = 0
	}
	mg.et.FireAfter(mg.cfg.Epoch)
}

// candidate is one migration-eligible page during planning.
type candidate struct {
	s    *paging.Space
	vpn  int64
	heat uint16
}

// plan detects per-node load imbalance over the finished epoch and
// queues migrations of the hottest pages away from the most loaded
// live node. Everything is a pure function of the epoch counters, the
// heat table, the owner table, and the health verdicts — identically
// seeded runs plan identically.
func (mg *Migrator) plan() {
	// Per-node loads over live nodes only.
	var total, max int64
	var src, live int
	for n := 0; n < mg.nodes; n++ {
		if !mg.m.NodeLive(n) {
			continue
		}
		live++
		f := mg.epochFaults[n]
		total += f
		if f > max {
			max, src = f, n
		}
	}
	if live < 2 || max < int64(mg.cfg.MinFaults) { // MinFaults >= 1: src is set
		return
	}
	// Trigger on max/mean >= Imbalance (cross-multiplied to stay exact).
	if float64(max)*float64(live) < mg.cfg.Imbalance*float64(total) {
		return
	}
	avg := total / int64(live)

	// Candidates: hot pages whose current primary is the loaded node
	// and that are not already queued.
	var cands []candidate
	for _, s := range mg.m.Spaces() {
		id := int(s.ID())
		if id >= len(mg.heats) || mg.heats[id] == nil {
			continue
		}
		h := mg.heats[id]
		reg := s.Region()
		if reg.Nodes() < 2 {
			continue
		}
		for vpn := int64(0); vpn < s.Pages(); vpn++ {
			if int(h[vpn]) < mg.cfg.HotThreshold {
				continue
			}
			if s.Owner(vpn, 0) != src {
				continue
			}
			if mg.queued[pageKey{s.ID(), vpn}] {
				continue
			}
			cands = append(cands, candidate{s: s, vpn: vpn, heat: h[vpn]})
		}
	}
	if len(cands) == 0 {
		return
	}
	// Hottest first; (space, vpn) ascending breaks ties, so the order
	// is a total one and the plan deterministic.
	slices.SortFunc(cands, candOrder)

	// Greedy placement against projected loads: each move shifts the
	// page's estimated per-epoch demand (heat/8, floor 1) from src to
	// the least-projected-loaded eligible destination. Stop once src
	// is projected back to the mean, or MaxMoves is reached.
	proj := make([]int64, mg.nodes)
	copy(proj, mg.epochFaults)
	reserved := make([]int64, mg.nodes)
	now := mg.m.Env().Now()
	moves := 0
	for _, c := range cands {
		if moves >= mg.cfg.MaxMoves || proj[src] <= avg {
			break
		}
		dst := mg.pickDst(c, proj, reserved)
		if dst < 0 {
			continue
		}
		est := int64(c.heat)/8 + 1
		proj[src] -= est
		proj[dst] += est
		reserved[dst] += paging.PageSize
		key := pageKey{c.s.ID(), c.vpn}
		mg.queued[key] = true
		mg.Queue(paging.RehomeJob{Space: c.s, VPN: c.vpn, Src: src, Dst: dst, Planned: now})
		mg.Planned.Inc()
		moves++
	}
	if mg.Pending() > 0 {
		mg.Kick()
	}
}

// pickDst chooses the destination for a candidate: the live node with
// the lowest projected load that holds no copy of the page and has
// free capacity for it (net of this round's reservations). Lowest
// index breaks ties. Returns -1 when no node qualifies.
func (mg *Migrator) pickDst(c candidate, proj, reserved []int64) int {
	best := -1
	for n := 0; n < mg.nodes; n++ {
		if !mg.m.NodeLive(n) {
			continue
		}
		if ownsCopy(c.s, c.vpn, n) {
			continue
		}
		if mg.mem.FreeCapacity(n)-reserved[n] < paging.PageSize {
			continue
		}
		if best < 0 || proj[n] < proj[best] {
			best = n
		}
	}
	return best
}

// ownsCopy reports whether node n holds any replica slot of the page.
func ownsCopy(s *paging.Space, vpn int64, n int) bool {
	for k := 0; k < s.Region().Replicas(); k++ {
		if s.Owner(vpn, k) == n {
			return true
		}
	}
	return false
}

// candOrder sorts by heat descending, then (space id, vpn) ascending: a
// total order, so the sorted plan is deterministic.
func candOrder(a, b candidate) int {
	return cmp.Or(cmp.Compare(b.heat, a.heat), cmp.Compare(a.s.ID(), b.s.ID()), cmp.Compare(a.vpn, b.vpn))
}

// ---- the engine's planner (paging.RehomePlanner) ----

// drop books a job the engine retires without a flip: its page keeps
// its owner and its charge, and the copy (if any) is abandoned.
func (mg *Migrator) drop(j paging.RehomeJob) {
	delete(mg.queued, pageKey{j.Space.ID(), j.VPN})
	mg.Aborted.Inc()
}

// stale reports whether j was planned under conditions that no longer
// hold: the owner moved (repair), the destination died, became an owner
// or filled up.
func (mg *Migrator) stale(j paging.RehomeJob) bool {
	return j.Space.Owner(j.VPN, 0) != j.Src || !mg.m.NodeLive(j.Dst) ||
		ownsCopy(j.Space, j.VPN, j.Dst) || mg.mem.FreeCapacity(j.Dst) < paging.PageSize
}

// Plan refuses a stale job (a dead source included) and books it
// aborted; the epoch planner chose its endpoints when it queued it.
func (mg *Migrator) Plan(j *paging.RehomeJob) bool {
	if !mg.stale(*j) && mg.m.NodeLive(j.Src) {
		return true
	}
	mg.drop(*j)
	return false
}

// Ready drops the job when another engine — crash repair, restoring a
// lost replica — is copying the same page to the same node, since
// landing both would put two slots on one node: repair goes first, and a
// page still hot is planned again at a later epoch. It holds the landing
// while the page has a fetch or write-back in flight, so a demand fetch
// can never read the old copy after the flip — which is exactly what the
// stale-read oracle checks — and drops the job if the world moved while
// the copy was in flight.
func (mg *Migrator) Ready(j paging.RehomeJob) paging.Landing {
	if mg.Rivals(j.Space, j.VPN)&(1<<uint(j.Dst)) != 0 {
		mg.drop(j)
		return paging.LandNever
	}
	if j.Space.InFlight(j.VPN) {
		mg.Deferred.Inc()
		return paging.LandLater
	}
	if mg.stale(j) {
		mg.drop(j)
		return paging.LandNever
	}
	return paging.Land
}

// Keep drops the job when an endpoint died mid-copy (failover and
// repair own recovery) and retries it on any other error.
func (mg *Migrator) Keep(j paging.RehomeJob, err error) bool {
	if err == rdma.ErrNodeDead {
		mg.drop(j)
		return false
	}
	return true
}

// Landed moves what follows the primary: the capacity charge, the trace
// span, the counters.
func (mg *Migrator) Landed(j paging.RehomeJob) {
	now := mg.m.Env().Now()
	mg.mem.MoveCharge(j.Src, j.Dst, paging.PageSize)
	mg.Trace().Span(trace.KindMigrate, trace.TidMigrate,
		fmt.Sprintf("migrate %s:%d %d->%d", j.Space.Name(), j.VPN, j.Src, j.Dst),
		j.Planned, now, nil)
	mg.PagesMoved.Inc()
	mg.BytesMoved.Add(paging.PageSize)
	mg.MigrLat.Record(int64(now - j.Planned))
	mg.Fold(uint64(j.Space.ID()), uint64(j.VPN), uint64(j.Src), uint64(j.Dst), uint64(now))
	delete(mg.queued, pageKey{j.Space.ID(), j.VPN})
}
