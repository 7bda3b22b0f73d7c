// Package sstable is the RocksDB stand-in for the paper's §5.2 workload:
// a PlainTable-style sorted string table read through mmap-like paged
// loads. Records are fixed-stride (key + value) and sorted by key in a
// paged space; a sparse index (one entry per index interval) stays
// in core, as PlainTable's index effectively does once hot.
//
// GET(key) binary-searches the sparse index (pure compute) and then
// scans at most one index interval of paged records — typically one page
// fault at the paper's 20 % local ratio. SCAN(start, n) reads n
// consecutive records — for SCAN(100) with 1 KiB values that is ~26
// pages, giving the 25–100× service-time dispersion the paper exploits
// to stress HOL blocking.
package sstable

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config sizes the table and the request mix.
type Config struct {
	// Keys is the number of records; keys are 0..Keys-1 scaled by
	// KeyStride to make the keyspace sparse (so misses are exercised).
	Keys      int64
	ValueSize int
	// IndexInterval is the sparse-index stride in records; 0 selects one
	// entry per data page (PlainTable indexes at block granularity, so a
	// point lookup touches at most one data page after the index).
	IndexInterval int

	// ScanRatio is the fraction of SCAN(ScanLen) requests; the paper's
	// RocksDB workload is 99 % GET / 1 % SCAN(100).
	ScanRatio float64
	ScanLen   int

	// AppPrefetch enables Canvas-style application-guided prefetching:
	// a SCAN announces its range to the paging layer up front, so the
	// sequential fetches overlap the per-record processing instead of
	// serializing with it.
	AppPrefetch bool

	// Cost model: request parsing, per-index-probe compare, per-record
	// processing during scans and final reply construction.
	ParseCost   sim.Time
	CompareCost sim.Time
	RecordCost  sim.Time
	ReplyCost   sim.Time
}

// DefaultConfig returns the paper's RocksDB-like setup.
func DefaultConfig(keys int64, valueSize int) Config {
	return Config{
		Keys:          keys,
		ValueSize:     valueSize,
		IndexInterval: 0, // auto: one entry per data page
		ScanRatio:     0.01,
		ScanLen:       100,
		ParseCost:     400,
		CompareCost:   30,
		RecordCost:    800, // iterator Next() + comparator + value copy
		ReplyCost:     400,
	}
}

// keyStride spaces user keys so lookups of absent keys are meaningful.
const keyStride = 7

// Table is the sorted table. Like PlainTable in mmap mode, the bloom
// filter and the sparse index are part of the mapped file and therefore
// paged: hot upper index levels stay resident under CLOCK while deep
// levels and bloom probes fault, matching the multi-fault GET profile of
// the paper's RocksDB runs.
type Table struct {
	cfg        Config
	mgr        *paging.Manager
	space      *paging.Space // records
	indexSpace *paging.Space // sparse index: key of record i*IndexInterval
	bloomSpace *paging.Space // bloom filter bits
	recordSize int64
	indexLen   int64 // entries in the sparse index
	bloomBits  int64

	Mismatches stats.Counter
	NotFound   stats.Counter
}

// Msg is the one message record of a request. Going in: GET(Key), or
// with Scan set SCAN of Len records from the first key ≥ Key. Coming
// back, in the same record: Found and Digest for a GET, Count and Digest
// for a SCAN.
type Msg struct {
	Key  uint64
	Scan bool
	Len  int

	Found  bool
	Count  int
	Digest uint64

	rec []byte // the handler's record buffer (workload.Scratch)
}

// recordKey returns the key stored at record index i.
func recordKey(i int64) uint64 { return uint64(i) * keyStride }

// valueByte is the deterministic value content for verification.
func valueByte(key uint64, i int) byte {
	return byte(uint64(i)*0xA24BAED4963EE407 + key*0x9FB21C651E98DF25)
}

// layout starts a table of cfg: the sparse-index interval resolved (by
// default one entry per page of records), the sizes every access path
// derives from it, and the bytes of the three page-aligned regions —
// records, index, and bloom filter at 10 bits per key, the RocksDB
// default. New allocates exactly these and Footprint adds them, so the
// two agree.
func layout(cfg Config) (t *Table, recordBytes, indexBytes, bloomBytes int64) {
	recordSize := int64(8 + cfg.ValueSize)
	if cfg.IndexInterval <= 0 {
		cfg.IndexInterval = int(max(paging.PageSize/recordSize, 1))
	}
	interval := int64(cfg.IndexInterval)
	t = &Table{cfg: cfg, recordSize: recordSize, indexLen: (cfg.Keys + interval - 1) / interval, bloomBits: cfg.Keys * 10}
	return t, paging.PageAlign(cfg.Keys * recordSize), paging.PageAlign(t.indexLen * 8),
		(t.bloomBits/8 + paging.PageSize) / paging.PageSize * paging.PageSize
}

// Footprint is what SpaceSize will report for a table of cfg, for sizing
// local DRAM without building one.
func Footprint(cfg Config) int64 {
	_, recordBytes, indexBytes, bloomBytes := layout(cfg)
	return recordBytes + indexBytes + bloomBytes
}

// New builds the table: records are written directly into the backing
// region (setup time) in sorted order, and the sparse index is built in
// core.
func New(mgr *paging.Manager, node memnode.Allocator, cfg Config) *Table {
	t, recordBytes, indexBytes, bloomBytes := layout(cfg)
	cfg, recordSize, bloomBits := t.cfg, t.recordSize, t.bloomBits
	region := node.MustAlloc("sstable", recordBytes)
	idxRegion := node.MustAlloc("sstable/index", indexBytes)
	bloomRegion := node.MustAlloc("sstable/bloom", bloomBytes)
	t.mgr = mgr
	t.space = mgr.NewSpace("sstable", region)
	t.indexSpace = mgr.NewSpace("sstable/index", idxRegion)
	t.bloomSpace = mgr.NewSpace("sstable/bloom", bloomRegion)
	for i := int64(0); i < cfg.Keys; i++ {
		off := i * recordSize
		key := recordKey(i)
		binary.LittleEndian.PutUint64(region.Data[off:off+8], key)
		for b := 0; b < cfg.ValueSize; b++ {
			region.Data[off+8+int64(b)] = valueByte(key, b)
		}
		if i%int64(cfg.IndexInterval) == 0 {
			binary.LittleEndian.PutUint64(idxRegion.Data[(i/int64(cfg.IndexInterval))*8:], key)
		}
		for _, h := range bloomHashes(key) {
			bit := int64(h % uint64(bloomBits))
			bloomRegion.Data[bit/8] |= 1 << uint(bit%8)
		}
	}
	return t
}

// bloomHashes returns the two probe positions of the bloom filter.
func bloomHashes(key uint64) [2]uint64 {
	h1 := key * 0xff51afd7ed558ccd
	h1 ^= h1 >> 33
	h2 := key * 0xc4ceb9fe1a85ec53
	h2 ^= h2 >> 29
	return [2]uint64{h1, h2}
}

// bloomTest probes the paged bloom filter.
func (t *Table) bloomTest(ctx workload.Ctx, key uint64) bool {
	for _, h := range bloomHashes(key) {
		ctx.Compute(t.cfg.CompareCost)
		bit := int64(h % uint64(t.bloomBits))
		var b [1]byte
		t.bloomSpace.Load(ctx, bit/8, b[:])
		if b[0]&(1<<uint(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// SpaceSize returns the total paged footprint (records + index + bloom)
// for sizing local DRAM.
func (t *Table) SpaceSize() int64 {
	return t.space.Size() + t.indexSpace.Size() + t.bloomSpace.Size()
}

// WarmCache preloads the spaces proportionally up to the frame pool's
// steady state.
func (t *Table) WarmCache() {
	cfg := t.mgr.Config()
	budget := int64(float64(t.mgr.TotalFrames())*(1-cfg.ReclaimThreshold-0.02)) * paging.PageSize
	total := t.SpaceSize()
	for _, sp := range []*paging.Space{t.space, t.indexSpace, t.bloomSpace} {
		share := int64(float64(budget) * float64(sp.Size()) / float64(total))
		share = share / paging.PageSize * paging.PageSize
		if share > sp.Size() {
			share = sp.Size()
		}
		if share > 0 {
			sp.Preload(0, share)
		}
	}
}

// seek returns the record index of the first record with key ≥ key,
// charging index-search compute.
func (t *Table) seek(ctx workload.Ctx, key uint64) int64 {
	// Binary search over the paged sparse index: each probe is a paged
	// load, so deep levels fault while hot upper levels stay resident.
	lo := int64(sort.Search(int(t.indexLen), func(i int) bool {
		ctx.Compute(t.cfg.CompareCost)
		return t.indexSpace.LoadU64(ctx, int64(i)*8) >= key
	}))
	ctx.Compute(t.cfg.ParseCost / 4)
	// Back off one interval (the target may precede index[lo]) and scan
	// records through paged memory.
	start := (lo - 1) * int64(t.cfg.IndexInterval)
	if start < 0 {
		start = 0
	}
	var hdr [8]byte
	for i := start; i < t.cfg.Keys; i++ {
		ctx.Compute(t.cfg.CompareCost)
		t.space.Load(ctx, i*t.recordSize, hdr[:])
		if binary.LittleEndian.Uint64(hdr[:]) >= key {
			return i
		}
	}
	return t.cfg.Keys
}

// get runs the point-lookup path: bloom filter, index seek, record read.
// A miss at any stage leaves m not Found.
func (t *Table) get(ctx workload.Ctx, m *Msg) {
	key := m.Key
	m.Found, m.Digest = false, 0
	if !t.bloomTest(ctx, key) {
		t.NotFound.Inc()
		return
	}
	i := t.seek(ctx, key)
	if i >= t.cfg.Keys {
		t.NotFound.Inc()
		return
	}
	rec := workload.Scratch(&m.rec, int(t.recordSize))
	t.space.Load(ctx, i*t.recordSize, rec)
	got := binary.LittleEndian.Uint64(rec[:8])
	if got != key {
		t.NotFound.Inc()
		return
	}
	ctx.Compute(t.cfg.RecordCost)
	digest := uint64(1469598103934665603)
	ok := true
	for b := 0; b < t.cfg.ValueSize; b += 64 {
		if rec[8+b] != valueByte(key, b) {
			ok = false
		}
		digest = digest*0x100000001B3 + uint64(rec[8+b])
	}
	if !ok {
		t.Mismatches.Inc()
	}
	m.Found, m.Digest = true, digest
}

// scan iterates m.Len records from the first key ≥ m.Key, with a
// preemption probe per record — the shape that lets DiLOS-P's preemptive
// scheduler help this workload (Figure 11) while plain busy-waiting
// suffers.
func (t *Table) scan(ctx workload.Ctx, m *Msg) {
	i := t.seek(ctx, m.Key)
	if t.cfg.AppPrefetch {
		t.mgr.PrefetchRange(ctx, t.space, i*t.recordSize, int64(m.Len)*t.recordSize)
	}
	rec := workload.Scratch(&m.rec, int(t.recordSize))
	digest := uint64(1469598103934665603)
	count := 0
	for ; i < t.cfg.Keys && count < m.Len; i++ {
		ctx.Probe()
		ctx.Compute(t.cfg.RecordCost)
		t.space.Load(ctx, i*t.recordSize, rec)
		key := binary.LittleEndian.Uint64(rec[:8])
		if rec[8] != valueByte(key, 0) {
			t.Mismatches.Inc()
		}
		digest = digest*0x100000001B3 + key
		count++
	}
	m.Count, m.Digest = count, digest
}

// VerifyGetDigest recomputes the expected GET digest for a key.
func (t *Table) VerifyGetDigest(key uint64) uint64 {
	digest := uint64(1469598103934665603)
	for b := 0; b < t.cfg.ValueSize; b += 64 {
		digest = digest*0x100000001B3 + uint64(valueByte(key, b))
	}
	return digest
}

// Name implements workload.App.
func (t *Table) Name() string {
	return fmt.Sprintf("rocksdb-%d%%scan", int(t.cfg.ScanRatio*100))
}

// NextRequest implements workload.App: the paper's bimodal GET/SCAN mix
// over uniformly random existing keys.
func (t *Table) NextRequest(rng *sim.RNG, reuse any) (any, int) {
	m := workload.Record[Msg](reuse)
	idx := rng.Int63n(t.cfg.Keys)
	*m = Msg{Key: recordKey(idx), rec: m.rec}
	if rng.Bool(t.cfg.ScanRatio) {
		// Keep full-length scans in range.
		m.Key, m.Scan, m.Len = recordKey(idx%max(t.cfg.Keys-int64(t.cfg.ScanLen), 1)), true, t.cfg.ScanLen
	}
	return m, 64
}

// Classify labels requests for per-class latency reporting
// (loadgen detects this method).
func (t *Table) Classify(payload any) string {
	if payload.(*Msg).Scan {
		return "SCAN"
	}
	return "GET"
}

// Handler implements workload.App: the answer goes into the request's
// own record.
func (t *Table) Handler() workload.Handler {
	return func(ctx workload.Ctx, payload any) (any, int) {
		ctx.Compute(t.cfg.ParseCost)
		m := payload.(*Msg)
		respBytes := 64 + t.cfg.ValueSize
		if m.Scan {
			t.scan(ctx, m)
			respBytes = 64 + m.Len*8
		} else {
			t.get(ctx, m)
		}
		ctx.Compute(t.cfg.ReplyCost)
		return m, respBytes
	}
}
