// Package sstable is the RocksDB stand-in for the paper's §5.2 workload:
// a PlainTable-style sorted string table read through mmap-like paged
// loads. Records are fixed-stride (key + value) and sorted by key in a
// paged space. The sparse index (one entry per index interval) and the
// bloom filter are paged spaces too, as PlainTable's are part of the
// mapped file; hot upper index levels stay resident once warm.
//
// GET(key) probes the bloom filter, binary-searches the sparse index
// (each probe a compare charge and a paged load) and then scans at most
// one index interval of paged records — typically one page fault at the
// paper's 20 % local ratio. SCAN(start, n) reads n
// consecutive records — for SCAN(100) with 1 KiB values that is ~26
// pages, giving the 25–100× service-time dispersion the paper exploits
// to stress HOL blocking.
package sstable

import (
	"encoding/binary"
	"fmt"

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

// New builds the table: records, the sparse index and the bloom filter
// are written through their spaces' SetupBytes views (setup time),
// records in sorted order.
//
// The low byte of a sum depends only on the low bytes of its terms, so a
// value depends on its key only through the low byte of valueByte's key
// term, which is valueByte(key, 0): a table holds at most 256 distinct
// values. Each is built once, with valueByte, and copied into every
// record that carries it.
func New(mgr *paging.Manager, node memnode.Allocator, cfg Config) *Table {
	t, recordBytes, indexBytes, bloomBytes := layout(cfg)
	cfg, recordSize, bloomBits := t.cfg, t.recordSize, t.bloomBits
	t.mgr = mgr
	t.space = mgr.NewSpace("sstable", node.MustAlloc("sstable", recordBytes))
	t.indexSpace = mgr.NewSpace("sstable/index", node.MustAlloc("sstable/index", indexBytes))
	t.bloomSpace = mgr.NewSpace("sstable/bloom", node.MustAlloc("sstable/bloom", bloomBytes))
	records, index, bloom := t.space.SetupBytes(), t.indexSpace.SetupBytes(), t.bloomSpace.SetupBytes()
	var images [256][]byte
	for i := int64(0); i < cfg.Keys; i++ {
		off := i * recordSize
		key := recordKey(i)
		binary.LittleEndian.PutUint64(records[off:off+8], key)
		img := &images[valueByte(key, 0)]
		if *img == nil {
			*img = make([]byte, cfg.ValueSize)
			for b := range *img {
				(*img)[b] = valueByte(key, b)
			}
		}
		copy(records[off+8:off+recordSize], *img)
		if i%int64(cfg.IndexInterval) == 0 {
			binary.LittleEndian.PutUint64(index[(i/int64(cfg.IndexInterval))*8:], key)
		}
		for _, h := range bloomHashes(key) {
			bit := int64(h % uint64(bloomBits))
			bloom[bit/8] |= 1 << uint(bit%8)
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

// SpaceSize returns the total paged footprint (records + index + bloom)
// for sizing local DRAM.
func (t *Table) SpaceSize() int64 {
	return t.space.Size() + t.indexSpace.Size() + t.bloomSpace.Size()
}

// WarmCache preloads the spaces proportionally up to the frame pool's
// steady state.
func (t *Table) WarmCache() { t.mgr.WarmSpaces(t.SpaceSize(), t.space, t.indexSpace, t.bloomSpace) }

// verifyGetDigest recomputes the expected GET digest for a key.
func (t *Table) verifyGetDigest(key uint64) uint64 {
	digest := uint64(fnvBasis)
	for b := 0; b < t.cfg.ValueSize; b += 64 {
		digest = digest*fnvPrime + uint64(valueByte(key, b))
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

// StepHandler implements workload.App.
func (t *Table) StepHandler() workload.StepHandler { return stepper{t} }

// stepper is the table's request logic, and its only form: a walk through
// the phases below that returns to the scheduler at every compute charge,
// probe and page miss, so a request runs on the worker core's step machine
// with no stack of its own and answers in its own record. Charges stay one
// per bloom probe, index probe and record, so every fault falls at the
// simulated instant its access is made.
type stepper struct{ t *Table }

// Phases (StepFrame.PC). GET: parse → bloom → index → walk → read →
// reply; SCAN: parse → index → walk → per-record loop → reply. A phase
// that charges is followed by the one the charge pays for.
const (
	stParse    = iota
	stBloom    // bloom filter, probe W[wN]: the compare charge …
	stBloomBit // … and the bit
	stIndex    // sparse index, binary search over [W[wLo], W[wHi]): the compare charge …
	stIndexKey // … and the probed entry
	stWalk     // records from W[wI] to the first key ≥ the target: the compare charge …
	stWalkKey  // … and the record's key
	stFound    // W[wI] is that record (Keys if there is none)
	stRead     // GET: read and digest the record
	stScan     // SCAN, per record: loop test and preemption probe …
	stScanCost // … the record's charge …
	stScanRead // … and the record
	stReply
	stDone
)

// Spill words (StepFrame.W), and the FNV-shaped fold of response digests.
const (
	wRead = iota // bytes already copied of a read that spans pages
	wN           // bloom probe number
	wLo          // index search bounds
	wHi
	wI // record index

	fnvBasis = 1469598103934665603
	fnvPrime = 0x100000001B3
)

// Begin implements workload.StepHandler.
func (h stepper) Begin(f *workload.StepFrame, payload any) {
	f.W[wHi] = uint64(h.t.indexLen)
	m := payload.(*Msg)
	m.Found, m.Count, m.Digest = false, 0, 0
}

// Abort implements workload.StepHandler: the frame refers to nothing.
func (stepper) Abort(*workload.StepFrame, error) {}

// Step implements workload.StepHandler.
func (h stepper) Step(ctx workload.StepCtx, f *workload.StepFrame, payload any) (any, int, sim.Time, workload.StepStatus) {
	t, cfg, m := h.t, &h.t.cfg, payload.(*Msg)
	for {
		switch f.PC {
		case stParse:
			f.PC = stBloom
			if m.Scan {
				f.PC = stIndex
			}
			return nil, 0, cfg.ParseCost, workload.StepCompute

		// The bloom filter is paged like the rest of the mapped file: two
		// probes, and a clear bit at either ends the GET.
		case stBloom:
			f.PC = stBloomBit
			return nil, 0, cfg.CompareCost, workload.StepCompute
		case stBloomBit:
			bit := int64(bloomHashes(m.Key)[f.W[wN]] % uint64(t.bloomBits))
			page, ok := ctx.TryPage(t.bloomSpace, bit/8>>paging.PageShift)
			if !ok {
				return nil, 0, 0, workload.StepFault
			}
			switch f.W[wN]++; {
			case page[bit/8&(paging.PageSize-1)]&(1<<uint(bit%8)) == 0:
				t.NotFound.Inc()
				f.PC = stReply
			case f.W[wN] < 2:
				f.PC = stBloom
			default:
				f.PC = stIndex
			}

		// Binary search over the paged sparse index (sort.Search's loop):
		// each probe is a paged load, so deep levels fault while hot upper
		// levels stay resident. Then back off one interval — the target may
		// precede index[lo] — and walk records through paged memory.
		case stIndex:
			if f.W[wLo] < f.W[wHi] {
				f.PC = stIndexKey
				return nil, 0, cfg.CompareCost, workload.StepCompute
			}
			f.W[wI] = uint64(max((int64(f.W[wLo])-1)*int64(cfg.IndexInterval), 0))
			f.PC = stWalk
			return nil, 0, cfg.ParseCost / 4, workload.StepCompute
		case stIndexKey:
			mid := (f.W[wLo] + f.W[wHi]) >> 1
			var p workload.Page
			if !p.Open(ctx, t.indexSpace, int64(mid)*8) {
				return nil, 0, 0, workload.StepFault
			}
			if p.U64(0) >= m.Key {
				f.W[wHi] = mid
			} else {
				f.W[wLo] = mid + 1
			}
			f.PC = stIndex

		case stWalk:
			if int64(f.W[wI]) >= cfg.Keys {
				f.PC = stFound
				continue
			}
			f.PC = stWalkKey
			return nil, 0, cfg.CompareCost, workload.StepCompute
		case stWalkKey:
			hdr := workload.Scratch(&m.rec, int(t.recordSize))[:8]
			if !workload.TryLoad(ctx, t.space, int64(f.W[wI])*t.recordSize, hdr, &f.W[wRead]) {
				return nil, 0, 0, workload.StepFault
			}
			if binary.LittleEndian.Uint64(hdr) >= m.Key {
				f.PC = stFound
			} else {
				f.W[wI]++
				f.PC = stWalk
			}

		// A SCAN with AppPrefetch announces its range before the first
		// record; a GET past the last key is a miss.
		case stFound:
			switch i := int64(f.W[wI]); {
			case m.Scan:
				if cfg.AppPrefetch {
					t.mgr.PrefetchRange(ctx, t.space, i*t.recordSize, int64(m.Len)*t.recordSize)
				}
				m.Digest = fnvBasis
				f.PC = stScan
			case i >= cfg.Keys:
				t.NotFound.Inc()
				f.PC = stReply
			default:
				f.PC = stRead
			}

		case stRead:
			rec := workload.Scratch(&m.rec, int(t.recordSize))
			if !workload.TryLoad(ctx, t.space, int64(f.W[wI])*t.recordSize, rec, &f.W[wRead]) {
				return nil, 0, 0, workload.StepFault
			}
			f.PC = stReply
			if binary.LittleEndian.Uint64(rec[:8]) != m.Key {
				t.NotFound.Inc()
				continue
			}
			digest, ok := uint64(fnvBasis), true
			for b := 0; b < cfg.ValueSize; b += 64 {
				if rec[8+b] != valueByte(m.Key, b) {
					ok = false
				}
				digest = digest*fnvPrime + uint64(rec[8+b])
			}
			if !ok {
				t.Mismatches.Inc()
			}
			m.Found, m.Digest = true, digest
			return nil, 0, cfg.RecordCost, workload.StepCompute

		// The scan loop carries a preemption probe per record — the shape
		// that lets DiLOS-P's preemptive scheduler help this workload
		// (Figure 11) while plain busy-waiting suffers.
		case stScan:
			if int64(f.W[wI]) >= cfg.Keys || m.Count >= m.Len {
				f.PC = stReply
				continue
			}
			f.PC = stScanCost
			if !ctx.ProbeFree() {
				return nil, 0, 0, workload.StepProbe
			}
		case stScanCost:
			f.PC = stScanRead
			return nil, 0, cfg.RecordCost, workload.StepCompute
		case stScanRead:
			rec := workload.Scratch(&m.rec, int(t.recordSize))
			if !workload.TryLoad(ctx, t.space, int64(f.W[wI])*t.recordSize, rec, &f.W[wRead]) {
				return nil, 0, 0, workload.StepFault
			}
			key := binary.LittleEndian.Uint64(rec[:8])
			if rec[8] != valueByte(key, 0) {
				t.Mismatches.Inc()
			}
			m.Digest = m.Digest*fnvPrime + key
			m.Count++
			f.W[wI]++
			f.PC = stScan

		case stReply:
			f.PC = stDone
			return nil, 0, cfg.ReplyCost, workload.StepCompute
		case stDone:
			if m.Scan {
				return m, 64 + m.Len*8, 0, workload.StepDone
			}
			return m, 64 + cfg.ValueSize, 0, workload.StepDone
		default:
			panic("sstable: corrupt step frame")
		}
	}
}
