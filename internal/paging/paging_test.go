package paging

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/memnode"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// testThread is a minimal Thread implementation for exercising the
// paging subsystem without the full scheduler: completions are applied
// directly from the CQ notify hook, and WaitPage parks on a private gate
// until the page becomes resident.
type testThread struct {
	proc *sim.Proc
	qp   *rdma.QP
	mgr  *Manager
	gate *sim.Gate
}

func (t *testThread) Proc() *sim.Proc      { return t.proc }
func (t *testThread) QP(node int) *rdma.QP { return t.qp }

func (t *testThread) WaitPage(s *Space, vpn int64) {
	for !s.Resident(vpn) {
		if t.mgr.RequestPage(t, s, vpn, func(error) { t.gate.Wake() }, true) {
			return
		}
		t.gate.Wait(t.proc)
	}
}

// rig bundles a self-completing paging setup.
type rig struct {
	env  *sim.Env
	mgr  *Manager
	nic  *rdma.NIC
	node *memnode.Node
	cq   *rdma.CQ
	qp   *rdma.QP
}

func newRig(t *testing.T, frames int64, cfg func(*Config)) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	c := DefaultConfig(frames * PageSize)
	if cfg != nil {
		cfg(&c)
	}
	mgr := NewManager(env, c)
	nic := rdma.NewNIC(env, rdma.DefaultConfig())
	cq := rdma.NewCQ("test")
	qp := nic.CreateQP("test", cq)
	// Auto-complete: apply fetch/write-back completions as they arrive.
	cq.Notify = func() {
		for _, comp := range cq.Poll(64) {
			mgr.Complete(comp.Cookie.(*Fetch), comp.Err)
		}
	}
	return &rig{env: env, mgr: mgr, nic: nic, node: memnode.New(1 << 30), cq: cq, qp: qp}
}

func (r *rig) thread(p *sim.Proc) *testThread {
	return &testThread{proc: p, qp: r.qp, mgr: r.mgr, gate: sim.NewGate(r.env)}
}

func TestFaultFetchesRealBytes(t *testing.T) {
	r := newRig(t, 16, nil)
	region := r.node.MustAlloc("data", 64*PageSize)
	for i := range region.Data {
		region.Data[i] = byte(i % 251)
	}
	sp := r.mgr.NewSpace("data", region)

	var got [100]byte
	r.env.Go("app", func(p *sim.Proc) {
		th := r.thread(p)
		sp.Load(th, 5*PageSize+10, got[:])
	})
	r.env.RunAll()

	want := region.Data[5*PageSize+10 : 5*PageSize+110]
	if !bytes.Equal(got[:], want) {
		t.Fatal("loaded bytes differ from backing store")
	}
	if r.mgr.Faults.Value() != 1 {
		t.Fatalf("faults = %d, want 1", r.mgr.Faults.Value())
	}
	if !sp.Resident(5) {
		t.Fatal("page not resident after fault")
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	r := newRig(t, 16, nil)
	region := r.node.MustAlloc("data", 8*PageSize)
	sp := r.mgr.NewSpace("data", region)

	payload := make([]byte, 3*PageSize)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	r.env.Go("app", func(p *sim.Proc) {
		th := r.thread(p)
		sp.Store(th, PageSize-100, payload)
		var back [3 * PageSize]byte
		sp.Load(th, PageSize-100, back[:])
		if !bytes.Equal(back[:], payload) {
			t.Error("cross-page store/load round trip failed")
		}
	})
	r.env.RunAll()
	if r.mgr.Faults.Value() != 4 {
		t.Fatalf("faults = %d, want 4 (pages 0-3)", r.mgr.Faults.Value())
	}
}

func TestU64U32Accessors(t *testing.T) {
	r := newRig(t, 16, nil)
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 4*PageSize))
	r.env.Go("app", func(p *sim.Proc) {
		th := r.thread(p)
		for _, off := range []int64{16, PageSize - 3} { // inside a page, straddling two
			want := 0x1122334455667788 ^ uint64(off)
			sp.Store(th, off, binary.LittleEndian.AppendUint64(nil, want))
			if got := sp.LoadU64(th, off); got != want {
				t.Errorf("LoadU64 at %d = %x, want %x", off, got, want)
			}
		}
	})
	r.env.RunAll()
}

func TestConcurrentFaultersShareOneFetch(t *testing.T) {
	r := newRig(t, 16, nil)
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 4*PageSize))
	done := 0
	for i := 0; i < 4; i++ {
		r.env.Go("app", func(p *sim.Proc) {
			th := r.thread(p)
			var b [8]byte
			sp.Load(th, 0, b[:])
			done++
		})
	}
	r.env.RunAll()
	if done != 4 {
		t.Fatalf("done = %d, want 4", done)
	}
	if r.mgr.Faults.Value() != 1 {
		t.Fatalf("faults = %d, want 1 (deduplicated)", r.mgr.Faults.Value())
	}
	if r.mgr.FetchWaits.Value() != 3 {
		t.Fatalf("fetch waits = %d, want 3", r.mgr.FetchWaits.Value())
	}
	if r.nic.Reads.Value() != 1 {
		t.Fatalf("RDMA reads = %d, want 1", r.nic.Reads.Value())
	}
}

func TestEvictionWritebackPreservesData(t *testing.T) {
	// 8-frame pool over a 64-page space: writing every page forces
	// dirty evictions; all data must survive the round trip.
	r := newRig(t, 8, func(c *Config) { c.ReclaimThreshold = 0.25; c.ReclaimBatch = 2 })
	region := r.node.MustAlloc("data", 64*PageSize)
	sp := r.mgr.NewSpace("data", region)
	rcq := rdma.NewCQ("reclaim")
	rqp := r.nic.CreateQP("reclaim", rcq)
	r.mgr.StartReclaimer(rqp, rcq)

	r.env.Go("app", func(p *sim.Proc) {
		th := r.thread(p)
		for pg := int64(0); pg < 64; pg++ {
			var b [16]byte
			b[0] = byte(pg + 1)
			b[15] = byte(pg * 3)
			sp.Store(th, pg*PageSize+100, b[:])
			p.Sleep(100)
		}
		// Read everything back through the paging path.
		for pg := int64(0); pg < 64; pg++ {
			var b [16]byte
			sp.Load(th, pg*PageSize+100, b[:])
			if b[0] != byte(pg+1) || b[15] != byte(pg*3) {
				t.Errorf("page %d: data lost across eviction", pg)
				return
			}
		}
	})
	r.env.Run(sim.Seconds(10))
	if r.mgr.DirtyWritebacks.Value() == 0 {
		t.Fatal("expected dirty write-backs under frame pressure")
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if free := r.mgr.FreeFrames(); free < 0 || free > r.mgr.TotalFrames() {
		t.Fatalf("free frames out of bounds: %d", free)
	}
}

func TestProactiveReclaimKeepsHeadroom(t *testing.T) {
	r := newRig(t, 40, func(c *Config) { c.ReclaimThreshold = 0.25; c.ReclaimBatch = 8 })
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 400*PageSize))
	rcq := rdma.NewCQ("reclaim")
	r.mgr.StartReclaimer(r.nic.CreateQP("reclaim", rcq), rcq)

	stalls := func() int64 { return r.mgr.AllocStalls.Value() }
	r.env.Go("app", func(p *sim.Proc) {
		th := r.thread(p)
		for pg := int64(0); pg < 400; pg++ {
			var b [8]byte
			sp.Load(th, pg*PageSize, b[:])
			// Leave the reclaimer time to run ahead of demand.
			p.Sleep(sim.Micros(20))
		}
	})
	r.env.Run(sim.Seconds(10))
	if stalls() != 0 {
		t.Fatalf("alloc stalls = %d; proactive reclaim should stay ahead at this demand rate", stalls())
	}
	if r.mgr.Evictions.Value() == 0 {
		t.Fatal("no evictions despite exceeding the pool")
	}
}

func TestOnDemandReclaimStalls(t *testing.T) {
	// With the proactive reclaimer disabled, the same workload must
	// stall allocations (the wake-up-on-pressure pathology of §3.3).
	r := newRig(t, 40, func(c *Config) { c.Proactive = false; c.ReclaimBatch = 8 })
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 400*PageSize))
	rcq := rdma.NewCQ("reclaim")
	r.mgr.StartReclaimer(r.nic.CreateQP("reclaim", rcq), rcq)

	completed := false
	r.env.Go("app", func(p *sim.Proc) {
		th := r.thread(p)
		for pg := int64(0); pg < 400; pg++ {
			var b [8]byte
			sp.Load(th, pg*PageSize, b[:])
			p.Sleep(sim.Micros(20))
		}
		completed = true
	})
	r.env.Run(sim.Seconds(10))
	if !completed {
		t.Fatal("workload did not complete under on-demand reclaim")
	}
	if r.mgr.AllocStalls.Value() == 0 {
		t.Fatal("expected allocation stalls with on-demand reclaim")
	}
}

func TestPrefetchSequential(t *testing.T) {
	r := newRig(t, 64, func(c *Config) { c.Prefetch = 4 })
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 64*PageSize))
	r.env.Go("app", func(p *sim.Proc) {
		th := r.thread(p)
		var b [8]byte
		sp.Load(th, 0, b[:]) // demand fault on page 0 + prefetch 1..4
	})
	r.env.RunAll()
	if r.mgr.PrefetchIssued.Value() != 4 {
		t.Fatalf("prefetch issued = %d, want 4", r.mgr.PrefetchIssued.Value())
	}
	for pg := int64(0); pg <= 4; pg++ {
		if !sp.Resident(pg) {
			t.Fatalf("page %d not resident after prefetch", pg)
		}
	}
	// A sequential access now hits the prefetched pages: no new faults.
	faultsBefore := r.mgr.Faults.Value()
	r.env.Go("app2", func(p *sim.Proc) {
		th := r.thread(p)
		var b [8]byte
		for pg := int64(1); pg <= 4; pg++ {
			sp.Load(th, pg*PageSize, b[:])
		}
	})
	r.env.RunAll()
	if r.mgr.Faults.Value() != faultsBefore {
		t.Fatal("prefetched pages should not fault")
	}
}

func TestPreloadAndReadDirect(t *testing.T) {
	r := newRig(t, 16, nil)
	region := r.node.MustAlloc("data", 8*PageSize)
	sp := r.mgr.NewSpace("data", region)
	copy(sp.SetupBytes()[3*PageSize:], []byte{9, 8, 7})
	sp.Preload(3*PageSize, PageSize)
	if !sp.Resident(3) {
		t.Fatal("page not resident after preload")
	}
	var b [3]byte
	sp.ReadDirect(3*PageSize, b[:])
	if b != [3]byte{9, 8, 7} {
		t.Fatalf("ReadDirect = %v", b)
	}
	// No faults, no fabric traffic for any of this.
	if r.mgr.Faults.Value() != 0 || r.nic.Reads.Value() != 0 {
		t.Fatal("setup-time facilities must not touch the fault path")
	}
}

// TestPreloadAliasesRegion: a warmed page is installed the way a fetch
// installs it, as an alias of its region view, so warm-up copies nothing.
// The first store materializes a private copy and leaves the region
// clean; evicting the dirty page writes the store back, and evicting a
// clean preloaded page writes nothing.
func TestPreloadAliasesRegion(t *testing.T) {
	r := newRig(t, 2, func(c *Config) {
		c.Policy = LRU
		c.ReclaimThreshold = 0 // reclaim only on demand, one victim at a time
		c.ReclaimBatch = 1
	})
	region := r.node.MustAlloc("data", 8*PageSize)
	sp := r.mgr.NewSpace("data", region)
	copy(sp.SetupBytes()[PageSize:], []byte{1, 2, 3})
	rcq := rdma.NewCQ("reclaim")
	r.mgr.StartReclaimer(r.nic.CreateQP("reclaim", rcq), rcq)

	sp.Preload(0, 2*PageSize)
	frameOf := func(vpn int64) int32 { return sp.ptes[vpn].index() }
	for vpn := int64(0); vpn < 2; vpn++ {
		fi := frameOf(vpn)
		if !r.mgr.aliased(fi) || &r.mgr.frames[fi].data[0] != &region.Data[vpn*PageSize] {
			t.Fatalf("preloaded page %d does not alias its region view", vpn)
		}
	}

	copy(sp.DirtyPage(1), []byte{7, 7})
	if r.mgr.aliased(frameOf(1)) {
		t.Fatal("stored-to page still aliases the region")
	}
	if got := r.mgr.Materialized.Value(); got != 1 {
		t.Fatalf("Materialized = %d, want 1", got)
	}
	if !bytes.Equal(region.Data[PageSize:PageSize+3], []byte{1, 2, 3}) {
		t.Fatalf("store reached the region before write-back: % x", region.Data[PageSize:PageSize+3])
	}
	var b [3]byte
	sp.ReadDirect(PageSize, b[:])
	if b != [3]byte{7, 7, 3} {
		t.Fatalf("ReadDirect after the store = %v", b)
	}

	// LRU order is page 0 (clean), then page 1 (dirty): each demand load
	// of a new page evicts the next of them.
	var writesAfterClean int64
	r.env.Go("app", func(p *sim.Proc) {
		th := r.thread(p)
		var buf [1]byte
		sp.Load(th, 2*PageSize, buf[:])
		writesAfterClean = r.nic.Writes.Value()
		sp.Load(th, 3*PageSize, buf[:])
	})
	r.env.Run(sim.Seconds(1))
	if writesAfterClean != 0 {
		t.Errorf("evicting a clean preloaded page posted %d WRITEs", writesAfterClean)
	}
	if got := r.nic.Writes.Value(); got != 1 {
		t.Errorf("evicting the dirty page posted %d WRITEs, want 1", got)
	}
	if sp.Resident(0) || sp.Resident(1) {
		t.Fatal("preloaded pages not evicted")
	}
	if !bytes.Equal(region.Data[PageSize:PageSize+3], []byte{7, 7, 3}) {
		t.Fatalf("write-back did not land the store: % x", region.Data[PageSize:PageSize+3])
	}
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	fn()
}

// TestSetupBytesRefusesCachedPages: the set-up view bypasses the cache,
// so it is refused while any page of the space is resident (the cache
// would go stale) or has a fetch in flight (the install would map the
// old bytes) — one such page anywhere in the space is enough.
func TestSetupBytesRefusesCachedPages(t *testing.T) {
	r := newRig(t, 16, nil)
	resident := r.mgr.NewSpace("resident", r.node.MustAlloc("resident", 8*PageSize))
	resident.Preload(6*PageSize, PageSize)
	mustPanic(t, "one resident page", func() { resident.SetupBytes() })

	fetching := r.mgr.NewSpace("fetching", r.node.MustAlloc("fetching", 8*PageSize))
	r.env.Go("app", func(p *sim.Proc) {
		if r.mgr.RequestPage(r.thread(p), fetching, 5, func(error) {}, true) {
			t.Error("page 5 resident before its fetch completed")
		}
		if !fetching.InFlight(5) {
			t.Error("page 5 not in flight")
		}
		mustPanic(t, "one fetch in flight", func() { fetching.SetupBytes() })
	})
	r.env.RunAll()
	if !fetching.Resident(5) {
		t.Fatal("page 5 not resident once its fetch completed")
	}
	untouched := r.mgr.NewSpace("untouched", r.node.MustAlloc("untouched", 8*PageSize))
	if got := len(untouched.SetupBytes()); got != 8*PageSize {
		t.Fatalf("view of %d bytes, want %d", got, 8*PageSize)
	}
}

func TestRandomizedPagingMatchesReference(t *testing.T) {
	// Property test: a random mix of paged stores/loads under heavy
	// eviction pressure behaves exactly like a flat byte array.
	r := newRig(t, 12, func(c *Config) { c.ReclaimThreshold = 0.3; c.ReclaimBatch = 4 })
	const pages = 100
	region := r.node.MustAlloc("data", pages*PageSize)
	sp := r.mgr.NewSpace("data", region)
	rcq := rdma.NewCQ("reclaim")
	r.mgr.StartReclaimer(r.nic.CreateQP("reclaim", rcq), rcq)

	ref := make([]byte, pages*PageSize)
	rng := sim.NewRNG(99)
	r.env.Go("app", func(p *sim.Proc) {
		th := r.thread(p)
		for op := 0; op < 3000; op++ {
			off := rng.Int63n(pages*PageSize - 64)
			n := 1 + rng.Intn(64)
			if rng.Bool(0.5) {
				buf := make([]byte, n)
				for i := range buf {
					buf[i] = byte(rng.Intn(256))
				}
				sp.Store(th, off, buf)
				copy(ref[off:], buf)
			} else {
				got := make([]byte, n)
				sp.Load(th, off, got)
				if !bytes.Equal(got, ref[off:off+int64(n)]) {
					t.Errorf("op %d: load mismatch at %d", op, off)
					return
				}
			}
			if op%500 == 0 {
				if err := r.mgr.CheckInvariants(); err != nil {
					t.Error(err)
					return
				}
			}
			p.Sleep(50)
		}
	})
	r.env.Run(sim.Seconds(60))
	if err := r.mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if r.mgr.Evictions.Value() == 0 {
		t.Fatal("test should have induced evictions")
	}
}

func TestFaultLatencyIsMicrosecondScale(t *testing.T) {
	r := newRig(t, 16, nil)
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 4*PageSize))
	var took sim.Time
	r.env.Go("app", func(p *sim.Proc) {
		th := r.thread(p)
		start := p.Now()
		var b [8]byte
		sp.Load(th, 0, b[:])
		took = p.Now() - start
	})
	r.env.RunAll()
	if us := took.Micros(); us < 2.0 || us > 3.5 {
		t.Fatalf("cold fault latency = %.2fus, want 2-3.5us", us)
	}
}
