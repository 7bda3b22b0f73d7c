package paging

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/memnode"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// harness is the paging tests' stand-in for a worker core: one task
// that works through a script of paged accesses, sleeps and checks in
// order, and waits for a fault the way a worker core does —
// TryRequestPage with a FaultCall carried across stalls, then its gate
// until the fetch lands. An access reads and writes through TryPage /
// DirtyPage, a page at a time. Ops are queued before the run, or by an
// op of the same harness.
type harness struct {
	task *sim.Task
	gate *sim.Gate
	mgr  *Manager
	qps  []*rdma.QP // one per memory node, or one for all
	ops  []op
	err  error // set by ready: the fetch was abandoned

	// The fault in progress.
	faulting bool
	stalled  bool // call is mid-way: repeat it
	call     FaultCall
	retry    bool // the next TryPage re-probes the faulted page
}

// op is one step of a harness's script: a paged access of buf at off in
// sp (then, if set, runs once it is over, with the *FetchError that
// aborted it or nil), a sleep, or fn.
type op struct {
	sp    *Space
	off   int64
	buf   []byte
	store bool
	then  func(err error)
	sleep sim.Time
	fn    func()
}

// newHarness returns a harness whose task first fires at the current
// simulated time.
func newHarness(mgr *Manager, qps ...*rdma.QP) *harness {
	env := mgr.Env()
	d := &harness{gate: sim.NewGate(env), mgr: mgr, qps: qps}
	d.task = sim.NewTask(env, "app", d.step)
	d.task.FireAt(env.Now())
	return d
}

// ready is a fetch's onReady: the page's state changed, or (err) the
// fetch was abandoned.
func (d *harness) ready(err error) { d.err = err; d.gate.Wake() }

func (d *harness) QP(node int) *rdma.QP {
	if len(d.qps) == 1 {
		return d.qps[0]
	}
	return d.qps[node]
}

func (d *harness) load(sp *Space, off int64, buf []byte)   { d.access(sp, off, buf, false, nil) }
func (d *harness) store(sp *Space, off int64, data []byte) { d.access(sp, off, data, true, nil) }
func (d *harness) sleep(t sim.Time)                        { d.ops = append(d.ops, op{sleep: t}) }
func (d *harness) do(fn func())                            { d.ops = append(d.ops, op{fn: fn}) }

func (d *harness) access(sp *Space, off int64, buf []byte, store bool, then func(error)) {
	d.ops = append(d.ops, op{sp: sp, off: off, buf: buf, store: store, then: then})
}

// step is the task's callback: it runs ops until one must wait.
func (d *harness) step() {
	for len(d.ops) > 0 {
		o := d.ops[0]
		switch {
		case o.fn != nil:
			d.ops = d.ops[1:]
			o.fn()
		case o.sp == nil:
			d.ops = d.ops[1:]
			if !d.task.Sleep(o.sleep) {
				return
			}
		default:
			if !d.move(&d.ops[0]) {
				return
			}
			d.ops = d.ops[1:]
			err := d.err
			d.err = nil
			if o.then != nil {
				o.then(err)
			}
		}
	}
}

// move copies o's bytes a page at a time and reports false while the
// harness waits for a page. An abandoned fetch ends the access (d.err).
func (d *harness) move(o *op) bool {
	for len(o.buf) > 0 {
		vpn := o.off >> PageShift
		if !d.faulting {
			page, ok := o.sp.TryPage(vpn, d.retry)
			if d.retry = false; ok {
				po, n := o.off&(PageSize-1), 0
				if o.store {
					n = copy(o.sp.DirtyPage(vpn)[po:], o.buf)
				} else {
					n = copy(o.buf, page[po:])
				}
				o.buf, o.off = o.buf[n:], o.off+int64(n)
				continue
			}
			d.faulting, d.err = true, nil
		}
		if !d.fault(o.sp, vpn) {
			return false
		}
		if d.faulting = false; d.err != nil {
			return true
		}
		d.retry = true
	}
	return true
}

// fault waits until page vpn of sp is resident or its fetch was
// abandoned, and reports false while the task must wait for a firing.
func (d *harness) fault(sp *Space, vpn int64) bool {
	for d.stalled || d.err == nil && !sp.Resident(vpn) {
		st := d.mgr.TryRequestPage(&d.call, d.task, d, sp, vpn, d.ready, true)
		if d.stalled = st == PageStalled; d.stalled || st == PagePending && !d.gate.Arm(d.task) {
			return false
		}
	}
	return true
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

// harness starts a harness on the rig's queue pair.
func (r *rig) harness() *harness { return newHarness(r.mgr, r.qp) }

func TestFaultFetchesRealBytes(t *testing.T) {
	r := newRig(t, 16, nil)
	region := r.node.MustAlloc("data", 64*PageSize)
	for i := range region.Data {
		region.Data[i] = byte(i % 251)
	}
	sp := r.mgr.NewSpace("data", region)

	var got [100]byte
	r.harness().load(sp, 5*PageSize+10, got[:])
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
	var back [3 * PageSize]byte
	d := r.harness()
	d.store(sp, PageSize-100, payload)
	d.load(sp, PageSize-100, back[:])
	r.env.RunAll()
	if !bytes.Equal(back[:], payload) {
		t.Error("cross-page store/load round trip failed")
	}
	if r.mgr.Faults.Value() != 4 {
		t.Fatalf("faults = %d, want 4 (pages 0-3)", r.mgr.Faults.Value())
	}
}

// residentOnly is the Thread of a LoadU64 whose pages are resident:
// any wait fails the test.
type residentOnly struct{ t *testing.T }

func (r residentOnly) WaitPage(s *Space, vpn int64) {
	r.t.Fatalf("%s page %d: LoadU64 waited", s.Name(), vpn)
}

func TestU64U32Accessors(t *testing.T) {
	r := newRig(t, 16, nil)
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 4*PageSize))
	d := r.harness()
	for _, off := range []int64{16, PageSize - 3} { // inside a page, straddling two
		want := 0x1122334455667788 ^ uint64(off)
		d.store(sp, off, binary.LittleEndian.AppendUint64(nil, want))
		d.do(func() {
			if got := sp.LoadU64(residentOnly{t}, off); got != want {
				t.Errorf("LoadU64 at %d = %x, want %x", off, got, want)
			}
		})
	}
	r.env.RunAll()
}

func TestConcurrentFaultersShareOneFetch(t *testing.T) {
	r := newRig(t, 16, nil)
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 4*PageSize))
	done := 0
	for i := 0; i < 4; i++ {
		d := r.harness()
		d.load(sp, 0, make([]byte, 8))
		d.do(func() { done++ })
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

	d := r.harness()
	for pg := int64(0); pg < 64; pg++ {
		b := make([]byte, 16)
		b[0] = byte(pg + 1)
		b[15] = byte(pg * 3)
		d.store(sp, pg*PageSize+100, b)
		d.sleep(100)
	}
	// Read everything back through the paging path.
	back := make([]byte, 64*16)
	for pg := int64(0); pg < 64; pg++ {
		d.load(sp, pg*PageSize+100, back[pg*16:(pg+1)*16])
	}
	r.env.Run(sim.Seconds(10))
	for pg := int64(0); pg < 64; pg++ {
		if b := back[pg*16:]; b[0] != byte(pg+1) || b[15] != byte(pg*3) {
			t.Fatalf("page %d: data lost across eviction", pg)
		}
	}
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
	d := r.harness()
	var b [8]byte
	for pg := int64(0); pg < 400; pg++ {
		d.load(sp, pg*PageSize, b[:])
		// Leave the reclaimer time to run ahead of demand.
		d.sleep(sim.Micros(20))
	}
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
	d := r.harness()
	var b [8]byte
	for pg := int64(0); pg < 400; pg++ {
		d.load(sp, pg*PageSize, b[:])
		d.sleep(sim.Micros(20))
	}
	d.do(func() { completed = true })
	r.env.Run(sim.Seconds(10))
	if !completed {
		t.Fatal("workload did not complete under on-demand reclaim")
	}
	if r.mgr.AllocStalls.Value() == 0 {
		t.Fatal("expected allocation stalls with on-demand reclaim")
	}
}

func TestPrefetchSequential(t *testing.T) {
	r := newRig(t, 64, func(c *Config) { c.PrefetchPolicy, c.Prefetch = Sequential, 4 })
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 64*PageSize))
	var b [8]byte
	r.harness().load(sp, 0, b[:]) // demand fault on page 0 + prefetch 1..4
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
	d := r.harness()
	for pg := int64(1); pg <= 4; pg++ {
		d.load(sp, pg*PageSize, b[:])
	}
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
	var buf [1]byte
	d := r.harness()
	d.load(sp, 2*PageSize, buf[:])
	d.do(func() { writesAfterClean = r.nic.Writes.Value() })
	d.load(sp, 3*PageSize, buf[:])
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
	d := r.harness()
	d.do(func() {
		var c FaultCall
		if st := r.mgr.TryRequestPage(&c, d.task, d, fetching, 5, func(error) {}, true); st != PagePending {
			t.Errorf("page 5 fault: status %d, want PagePending", st)
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
	d := r.harness()
	for op := 0; op < 3000; op++ {
		off := rng.Int63n(pages*PageSize - 64)
		n := 1 + rng.Intn(64)
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
				if !bytes.Equal(got, ref[off:off+int64(n)]) {
					t.Fatalf("op %d: load mismatch at %d", op, off)
				}
			})
		}
		if op%500 == 0 {
			d.do(func() {
				if err := r.mgr.CheckInvariants(); err != nil {
					t.Fatal(err)
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
		t.Fatal("test should have induced evictions")
	}
}

func TestFaultLatencyIsMicrosecondScale(t *testing.T) {
	r := newRig(t, 16, nil)
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 4*PageSize))
	var start, took sim.Time
	var b [8]byte
	d := r.harness()
	d.do(func() { start = r.env.Now() })
	d.load(sp, 0, b[:])
	d.do(func() { took = r.env.Now() - start })
	r.env.RunAll()
	if us := took.Micros(); us < 2.0 || us > 3.5 {
		t.Fatalf("cold fault latency = %.2fus, want 2-3.5us", us)
	}
}
