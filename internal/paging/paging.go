// Package paging implements the compute node's paged remote-memory
// subsystem: a bounded pool of real 4 KiB frames backed by memory-node
// regions, page tables, CLOCK and LRU eviction, a proactive reclaimer
// (§3.3 of the paper), and optional prefetch.
//
// A page's state — absent, fetching, present or in write-back, with its
// dirty and reference bits and the frame or in-flight record it holds —
// is one pointer-free word (pte.go), and every change of state is an
// edge of one legal-edge table taken through Manager.move. Frames keep
// no state of their own.
//
// The package provides mechanism only; *policy* — whether a faulting
// thread busy-waits or yields — lives in the scheduler, whose worker
// cores probe with Space.TryPage and drive a miss through
// Manager.TryRequestPage. This split mirrors the paper's observation that
// the fault handler and the scheduler must cooperate closely: here they
// literally share state, as in a unikernel's single address space.
package paging

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/memnode"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// PageSize is the compute-node page size (4 KiB, as in the paper's
// compute nodes; the memory node's huge pages are a layout detail the
// model does not need).
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageAlign rounds n bytes up to a whole number of pages.
func PageAlign(n int64) int64 { return (n + PageSize - 1) &^ (PageSize - 1) }

// Thread is the execution context of a blocking paged access
// (Space.LoadU64): its WaitPage returns once the page may be resident.
// The benchmark rigs are its one implementation; every other paged
// access is a task's TryPage.
type Thread interface {
	WaitPage(s *Space, vpn int64)
}

// frame is a local DRAM cache frame: the page it holds and the view of
// that page's bytes. It carries no state of its own — it is free exactly
// while space is -1, and filling, resident or in write-back as its
// owning PTE says. Every install, a demand fetch's, a prefetch's or a
// warm-up's (Space.Preload), points data at the page's view of the
// backing region: the frame aliases it until the first store
// materializes a private copy in the frame's own arena buffer
// (Manager.frameBuf). Manager.materialize is the only code that copies
// a page into the arena. Both views point outside the
// Go heap and hold nothing alive: the arena stays mapped while the
// Manager is reachable, and an aliased region while its Space is, which
// the Manager's spaces list keeps so. Aliasing is sound because the
// aliased bytes are clean — frame and region hold the same page by
// definition — and region memory is never mutated under a resident
// page: stores materialize first, write-backs only move
// already-materialized dirty frames, and SetupBytes refuses a space
// with any page resident.
type frame struct {
	data  []byte
	space int32 // owning space, -1 if free
	vpn   int64
}

// frameBuf returns frame fi's own buffer: its PageSize bytes of the
// arena.
func (m *Manager) frameBuf(fi int32) []byte {
	return m.arena[int(fi)*PageSize : (int(fi)+1)*PageSize]
}

// aliased reports whether frame fi's view points at the backing region
// rather than its own buffer (a clean zero-copy install).
func (m *Manager) aliased(fi int32) bool {
	return &m.frames[fi].data[0] != &m.frameBuf(fi)[0]
}

// materialize gives a frame a private copy of its page before the first
// write. A clean zero-copy install aliases the remote region, and the
// region must keep holding the clean bytes once the local copy diverges
// (the write-back protocol assumes the backing store lags the dirty
// frame, never the reverse).
func (m *Manager) materialize(fi int32) {
	if f, buf := &m.frames[fi], m.frameBuf(fi); &f.data[0] != &buf[0] {
		copy(buf, f.data)
		f.data = buf
		m.Materialized.Inc()
	}
}

// Config holds the paging cost model and policy knobs.
type Config struct {
	// FramePoolBytes is the local DRAM cache size.
	FramePoolBytes int64
	// ReclaimThreshold is the free-frame fraction below which the
	// proactive reclaimer starts evicting (paper default: 15 %).
	ReclaimThreshold float64
	// ReclaimBatch is how many pages one reclaim round evicts.
	ReclaimBatch int
	// Proactive selects the paper's pinned proactive reclaimer; when
	// false the reclaimer is only woken once allocation actually stalls
	// (the DiLOS-style on-demand design, for ablation).
	Proactive bool
	// PrefetchPolicy selects the readahead algorithm; Prefetch is the
	// window depth of the Sequential policy, read under no other.
	PrefetchPolicy PrefetchPolicy
	Prefetch       int

	// FetchAlign fetches pages in aligned spans of this many pages: a
	// demand fault brings in every absent page of its span. 1 (default)
	// is plain 4 KiB demand paging; 512 models a 2 MiB-granularity
	// memory node — the 512× I/O amplification the paper's Silo
	// experiment calls out (§5.2). The faulting thread waits only for
	// its own page; span-mates fill asynchronously.
	FetchAlign int

	// Policy selects the eviction algorithm.
	Policy EvictPolicy

	// FaultEntryCost is the CPU cost of taking the fault and locating the
	// page (the unikernel's single-lookup handler).
	FaultEntryCost sim.Time
	// MapCost is the CPU cost of installing the fetched page and
	// returning to the faulting context.
	MapCost sim.Time
	// ReclaimPageCost is the reclaimer CPU cost per evicted page.
	ReclaimPageCost sim.Time

	// MaxFetchAttempts bounds how many times a demand fetch is posted
	// (first attempt plus retries) before the access fails with
	// *FetchError. Write-backs are exempt: they retry until durable.
	MaxFetchAttempts int
	// RetryBackoff is the base delay before a failed fetch or
	// write-back is re-posted; it doubles per attempt (capped at 16×).
	RetryBackoff sim.Time
}

// DefaultConfig returns the calibrated paging model with the given local
// cache size.
func DefaultConfig(framePoolBytes int64) Config {
	return Config{
		FramePoolBytes:   framePoolBytes,
		ReclaimThreshold: 0.15,
		ReclaimBatch:     64,
		Proactive:        true,
		Prefetch:         0,
		FetchAlign:       1,
		Policy:           CLOCK,
		FaultEntryCost:   300,
		MapCost:          200,
		ReclaimPageCost:  250,
		MaxFetchAttempts: 4,
		RetryBackoff:     sim.Micros(10),
	}
}

// Manager owns the frame pool, the spaces, and the reclaimer.
type Manager struct {
	env *sim.Env
	cfg Config

	// arena is the frames' own bytes, PageSize each: an anonymous
	// mapping outside the Go heap (memnode.Map) that backing keeps
	// mapped while the manager is reachable. A frame nothing has filled
	// yet is the kernel's zero page, so a pool warm-up never fills is
	// never resident.
	arena   []byte
	backing *memnode.Backing
	frames  []frame
	free    []int32
	spaces  []*Space

	clockHand int
	lruPrev   []int32
	lruNext   []int32
	lruHead   int32
	lruTail   int32

	frameWaiters []*sim.Task
	reclaimGate  *sim.Gate

	// lowWater is the free-frame count the reclaim threshold stands for.
	lowWater float64

	// victimBuf is victim-selection scratch, reused across reclaim
	// rounds (only the reclaimer selects, and it consumes the previous
	// batch before selecting again) so steady-state eviction is
	// allocation-free.
	victimBuf []int32

	// Trace, if set, records failover-read instants on the failover
	// track (trace.TidFailover), so crash-run traces show when and for
	// which page reads were re-routed off a dead node.
	Trace *trace.Recorder

	// fetches is the slab of Fetch records, indexed by Fetch.slot — the
	// index a fetching or write-back PTE carries. Every demand fault,
	// prefetch and write-back takes a record; a terminal completion is
	// where its life ends (the PTE moves on and the RDMA completion
	// cookie is consumed), and freeFetches recycles it from there, so
	// the fault path is allocation-free in steady state.
	fetches     []*Fetch
	freeFetches []*Fetch

	// Counters for experiments and tests.
	Faults          stats.Counter // demand faults (misses)
	Hits            stats.Counter // resident accesses
	FetchWaits      stats.Counter // threads that waited on an existing fetch
	Evictions       stats.Counter
	DirtyWritebacks stats.Counter
	PrefetchIssued  stats.Counter
	PrefetchHits    stats.Counter // demand accesses absorbed by a prefetched page
	AllocStalls     stats.Counter // allocations that blocked on an empty pool
	Materialized    stats.Counter // private copies made by a first store to an aliased page

	// Fault-recovery counters (all zero on a reliable fabric).
	FetchRetries     stats.Counter // failed demand fetches re-posted
	FetchAborts      stats.Counter // demand fetches abandoned after MaxFetchAttempts
	PrefetchDrops    stats.Counter // optional prefetches dropped on error
	WritebackRetries stats.Counter // failed write-backs re-posted

	// Crash-failover counters (all zero unless a crash plan is wired).
	FailoverReads stats.Counter // fetches re-routed off a dead node to a replica
	ReplicaWrites stats.Counter // extra write-back posts fanned out to replicas

	// migr is the page-migration observer (nil = migration off, the
	// default fast path: no hook is consulted at all). It samples heat
	// on the fault/hit paths.
	migr Migrator

	// rehomers are the re-home engines built over this manager (repair,
	// migration; none on most runs). The reclaimer consults their
	// in-flight copies for write-back dual-apply.
	rehomers []*Rehomer

	// health is the node-liveness oracle (nil = every node live, the
	// fault-free fast path). wbQPs are the reclaimer's per-node QPs,
	// reused for write-back replica fan-out so every copy's completion
	// lands on the reclaimer CQ it is drained from. failQPs are
	// manager-owned per-node QPs for failover re-posts, whose CQ drains
	// itself in event context (no thread ever polls it).
	health  NodeHealth
	wbQPs   []*rdma.QP
	failQPs []*rdma.QP

	// RecoveryLat records, per page movement that saw at least one
	// completion error but eventually succeeded, the time from the
	// first error to the successful completion.
	RecoveryLat *stats.Histogram
}

// CheckFramePool reports whether a frame pool of bytes can be built: it
// must hold at least one page, and no more pages than the page-table
// word's frame index can name. bytes is a float so that a caller can
// check a product before converting it; NewManager panics with this
// error and the CLIs turn it into their usage error.
func CheckFramePool(bytes float64) error {
	if !(bytes >= PageSize) {
		return fmt.Errorf("frame pool smaller than one page")
	}
	if pages := math.Floor(bytes / PageSize); pages > 1<<pteIndexBits {
		return fmt.Errorf("frame pool of %g pages exceeds the page-table word's %d-bit index", pages, pteIndexBits)
	}
	return nil
}

// NewManager returns a manager with a frame pool of cfg.FramePoolBytes.
func NewManager(env *sim.Env, cfg Config) *Manager {
	if err := CheckFramePool(float64(cfg.FramePoolBytes)); err != nil {
		panic("paging: " + err.Error())
	}
	n := cfg.FramePoolBytes / PageSize
	arena, backing, err := memnode.Map(n * PageSize)
	if err != nil {
		panic(fmt.Sprintf("paging: frame pool: %v", err))
	}
	m := &Manager{
		env:         env,
		cfg:         cfg,
		arena:       arena,
		backing:     backing,
		frames:      make([]frame, n),
		free:        make([]int32, 0, n),
		reclaimGate: sim.NewGate(env),
		lowWater:    cfg.ReclaimThreshold * float64(n),
	}
	for i := int32(0); i < int32(n); i++ {
		m.frames[i] = frame{data: m.frameBuf(i), space: -1}
		m.free = append(m.free, i)
	}
	if m.cfg.FetchAlign < 1 {
		m.cfg.FetchAlign = 1
	}
	if m.cfg.MaxFetchAttempts < 1 {
		m.cfg.MaxFetchAttempts = 4
	}
	if m.cfg.RetryBackoff <= 0 {
		m.cfg.RetryBackoff = sim.Micros(10)
	}
	m.RecoveryLat = stats.NewHistogram()
	m.lruInit()
	return m
}

// Config returns the paging configuration.
func (m *Manager) Config() Config { return m.cfg }

// Env returns the simulation environment the manager runs in.
func (m *Manager) Env() *sim.Env { return m.env }

// NodeHealth is the failure-detector face the paging layer consults:
// rdma.Health implements it. Live gates routing decisions; the manager
// feeds data-path timeouts back through ReportTimeout so detection
// under load outruns the heartbeat.
type NodeHealth interface {
	Live(node int) bool
	ReportTimeout(node int)
}

// SetHealth installs the node-liveness oracle. nil (the default) keeps
// the fault-free routing paths, which never consult health at all.
func (m *Manager) SetHealth(h NodeHealth) { m.health = h }

// NodeLive reports whether node n is live per the installed health
// oracle (always true without one).
func (m *Manager) NodeLive(n int) bool { return m.health == nil || m.health.Live(n) }

// Migrator is the page-migration subsystem's face toward the paging hot
// paths (internal/migrate implements it; the interface lives here to
// avoid an import cycle). All hooks are behind nil checks, so
// migration-off runs execute byte-identically to builds without them.
type Migrator interface {
	// RecordFault observes a fetch post of (s, vpn) against node —
	// demand misses and async fills both count toward the node's load.
	RecordFault(s *Space, vpn int64, node int, demand bool)
	// RecordTouch observes a resident hit of (s, vpn).
	RecordTouch(s *Space, vpn int64)
}

// SetMigrator installs the migration observer. nil (the default) keeps
// the hook-free hot paths.
func (m *Manager) SetMigrator(mg Migrator) { m.migr = mg }

// Spaces returns the manager's spaces in creation order (migration
// planner and audit sweeps).
func (m *Manager) Spaces() []*Space { return m.spaces }

// SetFailoverQPs gives the manager its own per-node QPs for failover
// re-posts (a retry in completion context has no faulting thread — and
// therefore no worker QP — to post on). Their CQ is drained inline on
// delivery: completions re-enter CompleteOn from event context, which
// wakes fetch waiters exactly as a polling thread would.
func (m *Manager) SetFailoverQPs(qps []*rdma.QP, cq *rdma.CQ) {
	m.failQPs = qps
	cq.Notify = func() {
		for {
			cs := cq.Poll(16)
			if len(cs) == 0 {
				return
			}
			for _, c := range cs {
				m.CompleteOn(c.Cookie.(*Fetch), c.Err, c.QP)
			}
		}
	}
}

// TotalFrames returns the frame pool size in pages.
func (m *Manager) TotalFrames() int { return len(m.frames) }

// FreeFrames returns the current number of free frames.
func (m *Manager) FreeFrames() int { return len(m.free) }

// Space is a paged view over a memory-node region. All data an
// application stores in a Space physically lives in the region's backing
// bytes except while cached in a local frame.
type Space struct {
	mgr    *Manager
	id     int32
	name   string
	region *memnode.Region
	ptes   []pte
	leap   leapState

	// owners is the owner table: the node of copy k of page vpn at
	// [vpn*Replicas+k], written by every re-home landing (rehome.go).
	// nil until the space's first landing; the placement answers till then.
	owners []uint8
}

// NewSpace creates a paged space over region. The region size must be
// page-aligned.
func (m *Manager) NewSpace(name string, region *memnode.Region) *Space {
	if region.Size()%PageSize != 0 {
		panic(fmt.Sprintf("paging: region %q size %d not page-aligned", name, region.Size()))
	}
	s := &Space{
		mgr:    m,
		id:     int32(len(m.spaces)),
		name:   name,
		region: region,
		ptes:   make([]pte, region.Size()/PageSize),
	}
	m.spaces = append(m.spaces, s)
	return s
}

// Name returns the space's name.
func (s *Space) Name() string { return s.name }

// ID returns the space's creation-order id (stable for a run).
func (s *Space) ID() int32 { return s.id }

// Region returns the space's backing region.
func (s *Space) Region() *memnode.Region { return s.region }

// InFlight reports whether the page has a fetch or write-back pending.
// The migration planner defers its landings while true, so no in-flight
// movement ever straddles a re-route.
func (s *Space) InFlight(vpn int64) bool {
	st := s.ptes[vpn].state()
	return st == pageFetching || st == pageWriteback
}

// Size returns the space size in bytes.
func (s *Space) Size() int64 { return s.region.Size() }

// Pages returns the number of pages in the space.
func (s *Space) Pages() int64 { return int64(len(s.ptes)) }

// Resident reports whether the page is present in the local cache.
func (s *Space) Resident(vpn int64) bool { return s.ptes[vpn].state() == pagePresent }

// popFrame takes a frame off the free list, which must not be empty.
// The frame is unowned until a fetch record claims it (edgeFetch).
func (m *Manager) popFrame() int32 {
	idx := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	return idx
}

// allocFrame removes a free frame. On an empty pool it wakes the
// reclaimer, registers w to be armed when a frame is freed, and reports
// false. It wakes the reclaimer proactively when the pool runs low.
func (m *Manager) allocFrame(w *sim.Task) (int32, bool) {
	if len(m.free) == 0 {
		m.AllocStalls.Inc()
		m.reclaimGate.Wake()
		m.frameWaiters = append(m.frameWaiters, w)
		m.env.MarkBlocked(w, "frame-pool")
		return 0, false
	}
	idx := m.popFrame()
	if m.cfg.Proactive && float64(len(m.free)) < m.lowWater {
		m.reclaimGate.Wake()
	}
	return idx, true
}

// FrameWaiting reports whether w is registered to be armed when a frame
// is freed (audit use: O(waiters)).
func (m *Manager) FrameWaiting(w *sim.Task) bool { return slices.Contains(m.frameWaiters, w) }

// tryAllocFrame returns a free frame only if the pool is comfortably
// above the reclaim threshold; prefetch uses it so read-ahead never
// induces reclaim pressure.
func (m *Manager) tryAllocFrame() (int32, bool) {
	if float64(len(m.free)) <= m.lowWater {
		return 0, false
	}
	return m.popFrame(), true
}

// freeFrame returns a frame to the pool and unblocks allocation waiters.
// A page's frame is freed by move; only a frame that no record claimed
// yet comes back here directly.
func (m *Manager) freeFrame(idx int32) {
	f := &m.frames[idx]
	f.space, f.vpn = -1, 0
	f.data = m.frameBuf(idx) // drop any zero-copy alias with the frame's last page
	m.free = append(m.free, idx)
	for _, w := range m.frameWaiters {
		m.env.MarkUnblocked(w)
		w.FireAt(m.env.Now())
	}
	m.frameWaiters = m.frameWaiters[:0]
}
