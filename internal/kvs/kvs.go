// Package kvs is the Memcached-stand-in: an open-addressing (linear
// probing) hash table whose slot array lives entirely in paged remote
// memory. Every probe and every value read goes through the paging
// subsystem, so a GET's fault profile matches a memory-disaggregated
// key-value store: roughly one page fault per request at the paper's
// 20 % local-memory ratio, more for values spanning pages.
//
// Keys are fixed 50-byte strings derived from a uint64 id (the paper's
// Memcached runs used 50-byte keys); values are fixed-size and seeded
// deterministically so every response is verified end to end.
package kvs

import (
	"encoding/binary"
	"fmt"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

const (
	// KeySize matches the paper's Memcached configuration.
	KeySize = 50
	// keyArea is KeySize rounded up so the value pointer stays aligned.
	keyArea = 56
	// slotHeader holds the occupancy flag and an 8-bit hash tag used to
	// skip most full-key comparisons.
	slotHeader = 8
	// slotSize is header + key area + 8-byte item offset. Values live
	// out of line in the item space, as memcached keeps items in slabs
	// separate from the hash table — a GET therefore touches (at least)
	// one index page and one item page, the fault profile the paper's
	// Memcached runs exhibit.
	slotSize = slotHeader + keyArea + 8
)

// Config sizes the store.
type Config struct {
	// Keys is the number of objects loaded.
	Keys int64
	// ValueSize is the value payload per object (the paper uses 128 and
	// 1024 bytes).
	ValueSize int
	// LoadFactor is occupied/capacity for the slot array (default 0.7).
	LoadFactor float64

	// ParseCost and ReplyCost model memcached's request parsing and
	// response construction; ProbeCost the per-slot comparison.
	ParseCost sim.Time
	ReplyCost sim.Time
	ProbeCost sim.Time

	// GetRatio is the fraction of GET requests; the rest are SETs.
	GetRatio float64
}

// DefaultConfig returns the paper's Memcached-like setup for the given
// store size.
func DefaultConfig(keys int64, valueSize int) Config {
	return Config{
		Keys:       keys,
		ValueSize:  valueSize,
		LoadFactor: 0.7,
		ParseCost:  350,
		ReplyCost:  350,
		ProbeCost:  60,
		GetRatio:   1.0,
	}
}

// Store is the hash table plus the out-of-line item storage.
type Store struct {
	cfg      Config
	mgr      *paging.Manager
	index    *paging.Space // slot array
	items    *paging.Space // slab-style item storage
	slotSize int64
	capacity int64 // power of two
	mask     int64

	// Mismatches counts verification failures on GET responses; Misses
	// counts GETs for keys that were never loaded (should be zero with
	// the standard generator).
	Mismatches stats.Counter
	Misses     stats.Counter
}

// Msg is the one message record of a request. Going in: GET(Key), or
// with Set the SET of Key's value under Salt (the value generation salt,
// echoed into the stored value). Coming back, in the same record: Found,
// and a digest of the value bytes rather than the bytes themselves (the
// wire size is accounted separately).
type Msg struct {
	Key  uint64
	Set  bool
	Salt byte

	Found  bool
	Digest uint64

	val  []byte                     // the handler's value buffer (workload.Scratch)
	slot [slotHeader + KeySize]byte // … and the header and key of the slot it is probing
}

// layout sizes the store: the slot array's capacity (a power of two)
// and the page-aligned bytes of the index and item regions. New
// allocates exactly these and Footprint adds them, so the two agree.
func layout(cfg Config) (capacity, indexBytes, itemBytes int64) {
	if cfg.LoadFactor <= 0 || cfg.LoadFactor >= 1 {
		panic(fmt.Sprintf("kvs: bad load factor %v", cfg.LoadFactor))
	}
	capacity = 1
	for float64(capacity)*cfg.LoadFactor < float64(cfg.Keys) {
		capacity <<= 1
	}
	return capacity, paging.PageAlign(capacity * slotSize), paging.PageAlign(cfg.Keys * int64(cfg.ValueSize))
}

// Footprint is what SpaceSize will report for a store of cfg, for sizing
// local DRAM without building one.
func Footprint(cfg Config) int64 {
	_, indexBytes, itemBytes := layout(cfg)
	return indexBytes + itemBytes
}

// New builds and loads the store: slot layout is computed, the spaces
// are populated through their SetupBytes views (setup time), and nothing
// is resident until the caller warms the cache.
func New(mgr *paging.Manager, node memnode.Allocator, cfg Config) *Store {
	capacity, indexBytes, itemBytes := layout(cfg)
	s := &Store{
		cfg:      cfg,
		mgr:      mgr,
		index:    mgr.NewSpace("kvs/index", node.MustAlloc("kvs/index", indexBytes)),
		items:    mgr.NewSpace("kvs/items", node.MustAlloc("kvs/items", itemBytes)),
		slotSize: slotSize,
		capacity: capacity,
		mask:     capacity - 1,
	}
	s.load(s.index.SetupBytes(), s.items.SetupBytes())
	return s
}

// hash mixes a key id; the low bits choose a slot, bits 56+ form the tag.
func hash(key uint64) uint64 {
	h := key * 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// keyBytes materializes the canonical 50-byte key for an id.
func keyBytes(key uint64, out []byte) {
	binary.LittleEndian.PutUint64(out[:8], key)
	for i := 8; i < KeySize; i++ {
		out[i] = byte(key>>uint(i%8*8)) ^ byte(i*131)
	}
}

// valueByte is the deterministic content byte i of key's value under a
// given salt.
func valueByte(key uint64, salt byte, i int) byte {
	return byte(uint64(i)*0x65D200CE55B19AD9+key*0x4F2162926E40C299) ^ salt
}

// valueDigest folds the full value into a checkable 64-bit digest.
func valueDigest(key uint64, salt byte, n int) uint64 {
	var d uint64 = uint64(salt) + 1
	for i := 0; i < n; i += 64 {
		d = d*0x100000001B3 + uint64(valueByte(key, salt, i))
	}
	return d
}

// load populates the spaces' SetupBytes views at setup time. Items are
// laid out slab-style: item i at offset i*ValueSize.
//
// A loaded value depends on its key only through the low byte of
// valueByte's key term, which is valueByte(key, 0, 0) (the low byte of a
// sum depends only on the low bytes of its terms), so there are at most
// 256 distinct items: each is built once, with valueByte, and copied.
func (s *Store) load(index, items []byte) {
	slot := make([]byte, s.slotSize)
	var images [256][]byte
	for key := uint64(0); key < uint64(s.cfg.Keys); key++ {
		idx := s.findFreeDirect(index, key)
		h := hash(key)
		binary.LittleEndian.PutUint64(slot[:8], 1|(h>>56)<<8) // occupied | tag
		keyBytes(key, slot[slotHeader:slotHeader+KeySize])
		for i := slotHeader + KeySize; i < slotHeader+keyArea; i++ {
			slot[i] = 0
		}
		itemOff := int64(key) * int64(s.cfg.ValueSize)
		binary.LittleEndian.PutUint64(slot[slotHeader+keyArea:], uint64(itemOff))
		copy(index[idx*s.slotSize:], slot)
		img := &images[valueByte(key, 0, 0)]
		if *img == nil {
			*img = make([]byte, s.cfg.ValueSize)
			for i := range *img {
				(*img)[i] = valueByte(key, 0, i)
			}
		}
		copy(items[itemOff:], *img)
	}
}

// findFreeDirect linearly probes the raw slot array for the load phase.
func (s *Store) findFreeDirect(index []byte, key uint64) int64 {
	idx := int64(hash(key)) & s.mask
	for {
		off := idx * s.slotSize
		if index[off]&1 == 0 {
			return idx
		}
		idx = (idx + 1) & s.mask
	}
}

// SpaceSize returns the total paged footprint (slot array + items), for
// sizing local DRAM.
func (s *Store) SpaceSize() int64 { return s.index.Size() + s.items.Size() }

// WarmCache preloads the slot array and the items, each in proportion, up
// to the frame pool's steady-state occupancy.
func (s *Store) WarmCache() { s.mgr.WarmSpaces(s.SpaceSize(), s.index, s.items) }

// VerifyDigest recomputes the expected digest for a freshly loaded key
// (salt 0), for end-to-end response checking in tests.
func (s *Store) VerifyDigest(key uint64) uint64 {
	return valueDigest(key, 0, s.cfg.ValueSize)
}

// Name implements workload.App.
func (s *Store) Name() string {
	return fmt.Sprintf("memcached-%dB", s.cfg.ValueSize)
}

// NextRequest implements workload.App: uniform GETs (and SETs when
// GetRatio < 1) over the loaded keys, as in the paper's Memcached runs.
func (s *Store) NextRequest(rng *sim.RNG, reuse any) (any, int) {
	m := workload.Record[Msg](reuse)
	*m = Msg{Key: uint64(rng.Int63n(s.cfg.Keys)), val: m.val}
	if s.cfg.GetRatio < 1 && !rng.Bool(s.cfg.GetRatio) {
		m.Set, m.Salt = true, byte(rng.Intn(256))
		return m, 64 + KeySize + s.cfg.ValueSize
	}
	return m, 64 + KeySize
}

// StepHandler implements workload.App.
func (s *Store) StepHandler() workload.StepHandler { return stepper{s} }

// stepper is the store's request logic, and its only form: a walk through
// the phases below that returns to the scheduler at every compute charge,
// probe and page miss, so a request runs on the worker core's step machine
// with no stack of its own and answers in its own record.
type stepper struct{ s *Store }

// Phases (StepFrame.PC): parse, the probe loop from the hash bucket, the
// item's offset, its value, reply.
const (
	stParse = iota
	stProbe // per slot: loop test and preemption probe …
	stCost  // … the comparison's charge …
	stSlot  // … and the slot's header and key
	stItem  // the matching slot's item offset
	stValue // GET: read, verify and digest the value; SET: store it
	stReply
	stDone
)

// Spill words (StepFrame.W).
const (
	wDone  = iota // bytes already copied of an access that spans pages
	wIdx          // slot being probed
	wCount        // slots probed so far
	wItem         // where the key's value lives in the item space
)

// Begin implements workload.StepHandler.
func (h stepper) Begin(f *workload.StepFrame, payload any) {
	m := payload.(*Msg)
	m.Found, m.Digest = false, 0
	f.W[wIdx] = hash(m.Key) & uint64(h.s.mask)
}

// Abort implements workload.StepHandler: the frame refers to nothing.
func (stepper) Abort(*workload.StepFrame, error) {}

// Step implements workload.StepHandler.
func (h stepper) Step(ctx workload.StepCtx, f *workload.StepFrame, payload any) (any, int, sim.Time, workload.StepStatus) {
	s, cfg, m := h.s, &h.s.cfg, payload.(*Msg)
	for {
		switch f.PC {
		case stParse:
			f.PC = stProbe
			return nil, 0, cfg.ParseCost, workload.StepCompute

		// Probe slots from the hash bucket, verifying the tag and then the
		// key; an empty slot, or a full turn of the table, is a miss.
		case stProbe:
			if int64(f.W[wCount]) > s.mask {
				s.Misses.Inc()
				f.PC = stReply
				continue
			}
			f.PC = stCost
			if !ctx.ProbeFree() {
				return nil, 0, 0, workload.StepProbe
			}
		case stCost:
			f.PC = stSlot
			return nil, 0, cfg.ProbeCost, workload.StepCompute
		case stSlot:
			if !workload.TryLoad(ctx, s.index, int64(f.W[wIdx])*s.slotSize, m.slot[:], &f.W[wDone]) {
				return nil, 0, 0, workload.StepFault
			}
			meta := binary.LittleEndian.Uint64(m.slot[:8])
			if meta&1 == 0 {
				s.Misses.Inc()
				f.PC = stReply
				continue
			}
			if (meta>>8)&0xFF == hash(m.Key)>>56 {
				var want [KeySize]byte
				keyBytes(m.Key, want[:])
				if [KeySize]byte(m.slot[slotHeader:]) == want {
					f.PC = stItem
					continue
				}
			}
			f.W[wIdx] = (f.W[wIdx] + 1) & uint64(s.mask)
			f.W[wCount]++
			f.PC = stProbe
		case stItem:
			off := int64(f.W[wIdx])*s.slotSize + slotHeader + keyArea
			var p workload.Page
			if !p.Open(ctx, s.index, off) {
				return nil, 0, 0, workload.StepFault
			}
			f.W[wItem], f.PC = p.U64(0), stValue

		case stValue:
			val := workload.Scratch(&m.val, cfg.ValueSize)
			if m.Set {
				// Overwrite the value with new salted content.
				for i := range val {
					val[i] = valueByte(m.Key, m.Salt, i)
				}
				if !workload.TryStore(ctx, s.items, int64(f.W[wItem]), val, &f.W[wDone]) {
					return nil, 0, 0, workload.StepFault
				}
				m.Found, m.Digest = true, valueDigest(m.Key, m.Salt, cfg.ValueSize)
				f.PC = stReply
				continue
			}
			if !workload.TryLoad(ctx, s.items, int64(f.W[wItem]), val, &f.W[wDone]) {
				return nil, 0, 0, workload.StepFault
			}
			// Values are salted at SET time; recover the salt from the
			// first byte, then verify sampled bytes against it.
			salt, ok := val[0]^valueByte(m.Key, 0, 0), true
			digest := uint64(salt) + 1
			for i := 0; i < cfg.ValueSize; i += 64 {
				if val[i] != valueByte(m.Key, salt, i) {
					ok = false
				}
				digest = digest*0x100000001B3 + uint64(val[i])
			}
			if !ok {
				s.Mismatches.Inc()
			}
			m.Found, m.Digest = true, digest
			f.PC = stReply

		case stReply:
			f.PC = stDone
			return nil, 0, cfg.ReplyCost, workload.StepCompute
		case stDone:
			if m.Set {
				return m, 64, 0, workload.StepDone
			}
			return m, 64 + cfg.ValueSize, 0, workload.StepDone
		default:
			panic("kvs: corrupt step frame")
		}
	}
}
