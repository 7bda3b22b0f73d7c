package paging

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/rdma"
	"repro/internal/sim"
)

func TestLRUEvictsColdestPage(t *testing.T) {
	// 8 frames, LRU: touch pages 0..7, re-touch 0..3, then fault 8..11.
	// The evicted pages must be exactly the cold ones (4..7).
	r := newRig(t, 8, func(c *Config) {
		c.Policy = LRU
		c.ReclaimThreshold = 0 // reclaim only on demand for exactness
		c.ReclaimBatch = 1
	})
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 32*PageSize))
	rcq := rdma.NewCQ("reclaim")
	r.mgr.StartReclaimer(r.nic.CreateQP("reclaim", rcq), rcq)

	d := r.harness()
	var b [8]byte
	for pg := int64(0); pg < 8; pg++ {
		d.load(sp, pg*PageSize, b[:])
	}
	for pg := int64(0); pg < 4; pg++ {
		d.load(sp, pg*PageSize, b[:])
	}
	for pg := int64(8); pg < 12; pg++ {
		d.load(sp, pg*PageSize, b[:])
	}
	d.do(func() {
		// Hot pages 0..3 must still be resident; cold 4..7 evicted.
		for pg := int64(0); pg < 4; pg++ {
			if !sp.Resident(pg) {
				t.Errorf("hot page %d evicted under LRU", pg)
			}
		}
		for pg := int64(4); pg < 8; pg++ {
			if sp.Resident(pg) {
				t.Errorf("cold page %d survived under LRU", pg)
			}
		}
	})
	r.env.Run(sim.Seconds(10))
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUDataIntegrityUnderChurn(t *testing.T) {
	// The randomized reference test again, but under LRU: eviction
	// policy must not affect correctness.
	r := newRig(t, 10, func(c *Config) {
		c.Policy = LRU
		c.ReclaimThreshold = 0.3
		c.ReclaimBatch = 4
	})
	const pages = 64
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", pages*PageSize))
	rcq := rdma.NewCQ("reclaim")
	r.mgr.StartReclaimer(r.nic.CreateQP("reclaim", rcq), rcq)

	ref := make([]byte, pages*PageSize)
	rng := sim.NewRNG(4)
	d := r.harness()
	for op := 0; op < 1500; op++ {
		off := rng.Int63n(pages*PageSize - 32)
		n := 1 + rng.Intn(32)
		if rng.Bool(0.5) {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(rng.Intn(256))
			}
			d.store(sp, off, buf)
			d.do(func() { copy(ref[off:], buf) })
		} else {
			got := make([]byte, n)
			d.load(sp, off, got)
			d.do(func() {
				for i := range got {
					if got[i] != ref[off+int64(i)] {
						t.Fatalf("op %d: mismatch at %d", op, off+int64(i))
					}
				}
			})
		}
		d.sleep(50)
	}
	r.env.Run(sim.Seconds(60))
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Evictions.Value() == 0 {
		t.Fatal("no evictions induced")
	}
}

func TestFetchAlignFillsSpan(t *testing.T) {
	// FetchAlign=n: one demand fault makes the whole aligned span
	// resident and moves n pages over the fabric — the I/O
	// amplification of huge-page-granularity memory nodes. A demand
	// access to a span page still in flight waits on its fetch and counts
	// as a prefetch hit.
	for _, align := range []int64{2, 8} {
		r := newRig(t, 32, func(c *Config) { c.FetchAlign = int(align) })
		sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 32*PageSize))
		lo := 11 &^ (align - 1)
		other := lo + align - 1 // the span page posted last
		if other == 11 {
			other = lo
		}
		var b [8]byte
		d := r.harness()
		d.load(sp, 11*PageSize, b[:])
		d.load(sp, other*PageSize, b[:])
		r.env.RunAll()
		for pg := lo; pg < lo+align; pg++ {
			if !sp.Resident(pg) {
				t.Fatalf("align %d: span page %d not resident", align, pg)
			}
		}
		if sp.Resident(lo-1) || sp.Resident(lo+align) {
			t.Fatalf("align %d: fetch leaked outside the aligned span", align)
		}
		if got := r.nic.Reads.Value(); got != align {
			t.Fatalf("align %d: fabric reads = %d (amplification)", align, got)
		}
		if r.mgr.Faults.Value() != 1 || r.mgr.PrefetchHits.Value() != 1 {
			t.Fatalf("align %d: demand faults = %d, prefetch hits = %d; want 1, 1",
				align, r.mgr.Faults.Value(), r.mgr.PrefetchHits.Value())
		}
	}
}

func TestFetchAlignAmplifiesBandwidth(t *testing.T) {
	// Random single-page reads under FetchAlign 1 vs 16: same demand
	// fault count, ~16x the bytes on the wire.
	run := func(align int) (faults, bytes int64) {
		r := newRig(t, 512, func(c *Config) { c.FetchAlign = align })
		sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 4096*PageSize))
		rng := sim.NewRNG(9)
		d := r.harness()
		var b [8]byte
		for i := 0; i < 20; i++ {
			// Spread accesses so spans do not overlap.
			d.load(sp, (rng.Int63n(100)*20+int64(i)*20)*PageSize, b[:])
			d.sleep(sim.Micros(30))
		}
		r.env.Run(sim.Seconds(1))
		return r.mgr.Faults.Value(), r.nic.ReadBytes.Value()
	}
	f1, b1 := run(1)
	f16, b16 := run(16)
	if f1 != f16 {
		t.Fatalf("demand faults differ: %d vs %d", f1, f16)
	}
	if b16 < 10*b1 {
		t.Fatalf("amplification too small: %d vs %d bytes", b16, b1)
	}
}

// victimOrderDigest runs a seeded store-heavy churn over two spaces on a
// 32-frame pool and folds every eviction the reclaimer performs — (frame,
// space, page, dirty), in order — into an FNV-1a hash. Evictions are
// observed from outside the reclaimer: an observer event every 100 cycles
// (the reclaimer spends ReclaimPageCost = 250 before each eviction, so at
// most one falls between two observations) finds the one frame whose
// page stopped being resident since the last look.
func victimOrderDigest(t *testing.T, pol EvictPolicy) (digest uint64, evictions, dirty int64) {
	t.Helper()
	const pages = 64
	r := newRig(t, 32, func(c *Config) {
		c.Policy = pol
		c.ReclaimThreshold = 0.25
		c.ReclaimBatch = 6
	})
	spaces := []*Space{
		r.mgr.NewSpace("a", r.node.MustAlloc("a", pages*PageSize)),
		r.mgr.NewSpace("b", r.node.MustAlloc("b", pages*PageSize)),
	}
	rcq := rdma.NewCQ("reclaim")
	r.mgr.StartReclaimer(r.nic.CreateQP("reclaim", rcq), rcq)

	h := fnv.New64a()
	type owner struct {
		sp  *Space
		vpn int64
	}
	snap := make([]owner, r.mgr.TotalFrames())
	var lastEv, lastWB int64
	done := false
	var observe func()
	observe = func() {
		ev, wb := r.mgr.Evictions.Value(), r.mgr.DirtyWritebacks.Value()
		switch ev - lastEv {
		case 0:
		case 1:
			victim := -1
			for fi, o := range snap {
				if o.sp != nil && !o.sp.Resident(o.vpn) {
					if victim >= 0 {
						t.Fatalf("cycle %d: frames %d and %d both lost their page", r.env.Now(), victim, fi)
					}
					victim = fi
				}
			}
			if victim < 0 {
				t.Fatalf("cycle %d: an eviction was counted but every frame kept its page", r.env.Now())
			}
			o := snap[victim]
			var rec [8 * 4]byte
			for i, v := range []uint64{uint64(victim), uint64(o.sp.ID()), uint64(o.vpn), uint64(wb - lastWB)} {
				binary.LittleEndian.PutUint64(rec[8*i:], v)
			}
			h.Write(rec[:])
			evictions++
			dirty += wb - lastWB
		default:
			t.Fatalf("cycle %d: %d evictions between two observations", r.env.Now(), ev-lastEv)
		}
		lastEv, lastWB = ev, wb
		for fi := range snap {
			snap[fi] = owner{}
			if f := &r.mgr.frames[fi]; f.space >= 0 {
				if sp := r.mgr.spaces[f.space]; sp.Resident(f.vpn) {
					snap[fi] = owner{sp, f.vpn}
				}
			}
		}
		if !done || r.env.Pending() > 0 {
			r.env.After(100, observe)
		}
	}
	observe()

	rng := sim.NewRNG(16)
	d := r.harness()
	var b [8]byte
	for op := 0; op < 4000; op++ {
		sp := spaces[rng.Intn(len(spaces))]
		off := rng.Int63n(pages*PageSize - 8)
		if rng.Bool(0.6) {
			d.store(sp, off, b[:])
		} else {
			d.load(sp, off, b[:])
		}
		d.sleep(50)
	}
	d.do(func() { done = true })
	r.env.RunAll()
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if evictions != r.mgr.Evictions.Value() {
		t.Fatalf("observed %d evictions, the manager counted %d", evictions, r.mgr.Evictions.Value())
	}
	return h.Sum64(), evictions, dirty
}

// TestVictimOrderPinned pins which frames the reclaimer evicts, and in
// what order, under each policy: the clock hand, the two-sweep rule and
// the exclusion of frames already picked in the round, and the LRU list
// order under touch / install / unmap. The constants were recorded before
// the page-state word replaced the frame-side state and the picked map.
func TestVictimOrderPinned(t *testing.T) {
	want := map[EvictPolicy]uint64{CLOCK: 0xb5983fbf4d00973e, LRU: 0x31c6d73fadbc4652}
	for _, pol := range []EvictPolicy{CLOCK, LRU} {
		got, n, dirty := victimOrderDigest(t, pol)
		if n < 1000 || dirty == 0 || dirty == n {
			t.Fatalf("%v: churn too tame: %d evictions, %d dirty", pol, n, dirty)
		}
		if got != want[pol] {
			t.Errorf("%v: victim-order digest %#x over %d evictions (%d dirty), want %#x", pol, got, n, dirty, want[pol])
		}
	}
}
