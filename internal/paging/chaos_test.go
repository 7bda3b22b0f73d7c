package paging

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/memnode"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// chaosItc injects completion errors at a fixed rate from a private
// seeded stream (the faults package is not imported here: paging's
// recovery machinery is exercised against the raw rdma.Interceptor).
type chaosItc struct {
	rng  *sim.RNG
	rate float64
}

func (c *chaosItc) WROutcome(kind rdma.OpKind, bytes int) (bool, sim.Time) {
	return c.rng.Bool(c.rate), 0
}
func (c *chaosItc) LinkFactor(at sim.Time) float64  { return 1 }
func (c *chaosItc) ServeDelay(at sim.Time) sim.Time { return 0 }

// TestChaosPagingSurvivesWRErrors is the chaos test of the PR's
// acceptance criteria (run under -race in CI): a store/load workload
// under heavy eviction pressure with 5% of work requests — including
// write-backs — completing in error. The system must retry its way
// through without ever violating the paging invariants (in particular:
// no dirty frame reclaimed before its write-back succeeded) and without
// losing a byte.
func TestChaosPagingSurvivesWRErrors(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig(12 * PageSize)
	cfg.ReclaimThreshold = 0.3
	cfg.ReclaimBatch = 4
	mgr := NewManager(env, cfg)
	nic := rdma.NewNIC(env, rdma.DefaultConfig())
	nic.SetInterceptor(&chaosItc{rng: sim.NewRNG(7), rate: 0.05})
	node := memnode.New(1 << 30)
	cq := rdma.NewCQ("test")
	qp := nic.CreateQP("test", cq)
	cq.Notify = func() {
		for _, comp := range cq.Poll(64) {
			mgr.Complete(comp.Cookie.(*Fetch), comp.Err)
		}
	}

	const pages = 100
	region := node.MustAlloc("data", pages*PageSize)
	sp := mgr.NewSpace("data", region)
	rcq := rdma.NewCQ("reclaim")
	mgr.StartReclaimer(nic.CreateQP("reclaim", rcq), rcq)

	ref := make([]byte, pages*PageSize)
	rng := sim.NewRNG(99)
	aborted := 0
	d := newHarness(mgr, qp)
	for op := 0; op < 3000; op++ {
		off := rng.Int63n(pages*PageSize - 64)
		n := 1 + rng.Intn(64)
		if rng.Bool(0.5) {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(rng.Intn(256))
			}
			d.access(sp, off, buf, true, func(err error) {
				if err != nil {
					// An aborted access: like a failed request, it has
					// no effect; the workload carries on.
					aborted++
					return
				}
				copy(ref[off:], buf)
			})
		} else {
			got := make([]byte, n)
			d.access(sp, off, got, false, func(err error) {
				if err != nil {
					aborted++
				} else if !bytes.Equal(got, ref[off:off+int64(n)]) {
					t.Errorf("op %d: load mismatch at %d", op, off)
				}
			})
		}
		if op%250 == 0 {
			d.do(func() {
				if err := mgr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
		d.sleep(50)
	}
	env.Run(sim.Seconds(120))

	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if mgr.FetchRetries.Value() == 0 || mgr.WritebackRetries.Value() == 0 {
		t.Fatalf("chaos exercised no retries: fetch=%d writeback=%d",
			mgr.FetchRetries.Value(), mgr.WritebackRetries.Value())
	}
	if mgr.Evictions.Value() == 0 {
		t.Fatal("no eviction pressure")
	}
	if nic.CompletionErrors.Value() == 0 || nic.QPResets.Value() == 0 {
		t.Fatal("fabric error machinery not exercised")
	}
	if mgr.RecoveryLat.Count() == 0 {
		t.Fatal("no recovery latencies recorded")
	}
	t.Logf("errors=%d resets=%d fetchRetries=%d wbRetries=%d aborts=%d recoveries=%d",
		nic.CompletionErrors.Value(), nic.QPResets.Value(),
		mgr.FetchRetries.Value(), mgr.WritebackRetries.Value(),
		aborted, mgr.RecoveryLat.Count())
}

// outageItc kills one memory node's link for a fixed window — every
// work request in [killFrom, killUntil) completes in error — and
// mirrors the node's scheduled stall windows into serve delays, the
// same coupling faults.Injector provides.
type outageItc struct {
	env                 *sim.Env
	killFrom, killUntil sim.Time
	node                *memnode.Node
}

func (o *outageItc) WROutcome(kind rdma.OpKind, bytes int) (bool, sim.Time) {
	now := o.env.Now()
	return now >= o.killFrom && now < o.killUntil, 0
}
func (o *outageItc) LinkFactor(at sim.Time) float64 { return 1 }
func (o *outageItc) ServeDelay(at sim.Time) sim.Time {
	if d := sim.Time(o.node.AvailableAt(int64(at))) - at; d > 0 {
		return d
	}
	return 0
}

// TestChaosMultiNodeOutageConfinedToStripe is the multi-node chaos
// test (run under -race in CI): a striped store/load workload over four
// memory nodes while node 2 is first killed (all its WRs error for
// 2 ms) and later stalled. Demand fetches to the dead stripe abort with
// *FetchError after bounded retries — only that stripe may abort — and
// dirty pages owned by it are retried until durable (invariant 5),
// while the other three stripes stay correct and make progress. Every
// operation must finish: no lost wake-ups.
func TestChaosMultiNodeOutageConfinedToStripe(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig(12 * PageSize)
	cfg.ReclaimThreshold = 0.3
	cfg.ReclaimBatch = 4
	mgr := NewManager(env, cfg)

	const numNodes = 4
	fab := rdma.NewFabric(env, rdma.DefaultConfig(), numNodes)
	nodes := make([]*memnode.Node, numNodes)
	for i := range nodes {
		nodes[i] = memnode.New(1 << 30)
	}
	cluster := memnode.NewCluster(nodes, PageSize, memnode.Placement{Nodes: numNodes, Block: 1, Replicas: 1})
	const faulty = 2
	fab[faulty].SetInterceptor(&outageItc{
		env: env, killFrom: sim.Millis(2), killUntil: sim.Millis(4), node: nodes[faulty],
	})
	// A later pure-stall window: the node is unresponsive but its link
	// delivers, so fetches stretch instead of failing.
	nodes[faulty].Pause(int64(sim.Millis(6)), int64(sim.Millis(6)+sim.Micros(500)))

	cq := rdma.NewCQ("test")
	qps := fab.CreateQPs("app", cq)
	cq.Notify = func() {
		for _, comp := range cq.Poll(64) {
			mgr.Complete(comp.Cookie.(*Fetch), comp.Err)
		}
	}
	const pages = 100
	region := cluster.MustAlloc("data", pages*PageSize)
	sp := mgr.NewSpace("data", region)
	rcq := rdma.NewCQ("reclaim")
	mgr.StartReclaimerQPs(fab.CreateQPs("reclaim", rcq), rcq)

	ref := make([]byte, pages*PageSize)
	rng := sim.NewRNG(99)
	aborted := 0
	finished := false
	abort := func(err error) {
		fe := err.(*FetchError)
		if owner := sp.Owner(fe.VPN, 0); owner != faulty {
			t.Errorf("abort on vpn %d owned by healthy node %d", fe.VPN, owner)
		}
		aborted++
	}
	d := newHarness(mgr, qps...)
	for op := 0; op < 3000; op++ {
		off := rng.Int63n(pages*PageSize - 64)
		n := 1 + rng.Intn(64)
		if rng.Bool(0.5) {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(rng.Intn(256))
			}
			d.access(sp, off, buf, true, func(err error) {
				if err != nil {
					abort(err)
					return
				}
				copy(ref[off:], buf)
			})
		} else {
			got := make([]byte, n)
			d.access(sp, off, got, false, func(err error) {
				if err != nil {
					abort(err)
				} else if !bytes.Equal(got, ref[off:off+int64(n)]) {
					t.Errorf("op %d: load mismatch at %d", op, off)
				}
			})
		}
		if op%250 == 0 {
			d.do(func() {
				if err := mgr.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			})
		}
		d.sleep(50)
	}
	d.do(func() { finished = true })
	env.Run(sim.Seconds(120))

	if !finished {
		t.Fatal("workload did not finish: lost wake-up under node outage")
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if aborted == 0 {
		t.Fatal("outage window produced no aborts")
	}
	if fab[faulty].CompletionErrors.Value() == 0 {
		t.Fatal("faulty node's link saw no completion errors")
	}
	for i, nic := range fab {
		if i != faulty && nic.CompletionErrors.Value() != 0 {
			t.Fatalf("healthy node %d saw %d completion errors", i, nic.CompletionErrors.Value())
		}
	}
	if mgr.WritebackRetries.Value() == 0 {
		t.Fatal("no write-back retries: dead stripe's dirty pages never challenged")
	}
	if nodes[faulty].StalledTime() == 0 {
		t.Fatal("stall window not scheduled")
	}
	t.Logf("aborts=%d errors=%d resets=%d fetchRetries=%d wbRetries=%d",
		aborted, fab[faulty].CompletionErrors.Value(), fab[faulty].QPResets.Value(),
		mgr.FetchRetries.Value(), mgr.WritebackRetries.Value())
}

// TestFetchAbortsAfterBoundedRetries drives every work request to
// failure: the demand fetch must give up after MaxFetchAttempts posts
// and deliver a *FetchError instead of hanging the thread, leaving the
// page absent and the invariants intact.
func TestFetchAbortsAfterBoundedRetries(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig(16 * PageSize)
	cfg.MaxFetchAttempts = 3
	cfg.RetryBackoff = sim.Micros(10)
	mgr := NewManager(env, cfg)
	nic := rdma.NewNIC(env, rdma.DefaultConfig())
	nic.SetInterceptor(&chaosItc{rng: sim.NewRNG(1), rate: 1})
	node := memnode.New(1 << 20)
	cq := rdma.NewCQ("test")
	qp := nic.CreateQP("test", cq)
	cq.Notify = func() {
		for _, comp := range cq.Poll(64) {
			mgr.Complete(comp.Cookie.(*Fetch), comp.Err)
		}
	}
	sp := mgr.NewSpace("data", node.MustAlloc("data", 8*PageSize))

	var ferr *FetchError
	var b [8]byte
	newHarness(mgr, qp).access(sp, 0, b[:], false, func(err error) {
		var ok bool
		if ferr, ok = err.(*FetchError); !ok {
			t.Errorf("access ended with %v, want *FetchError", err)
		}
	})
	env.RunAll()

	if ferr == nil {
		t.Fatal("fetch never aborted")
	}
	if ferr.Space != "data" || ferr.VPN != 0 || ferr.Attempts != 3 {
		t.Fatalf("bad FetchError: %+v", ferr)
	}
	if !errors.Is(ferr, rdma.ErrWR) && !errors.Is(ferr, rdma.ErrWRFlushed) {
		t.Fatalf("FetchError does not wrap the completion error: %v", ferr.Err)
	}
	if sp.Resident(0) {
		t.Fatal("aborted page left resident")
	}
	if mgr.FetchAborts.Value() != 1 || mgr.FetchRetries.Value() != 2 {
		t.Fatalf("aborts=%d retries=%d, want 1/2", mgr.FetchAborts.Value(), mgr.FetchRetries.Value())
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if mgr.FreeFrames() != mgr.TotalFrames() {
		t.Fatal("aborted fetch leaked its frame")
	}
}

// TestTinyQPFaultPathMakesProgress pins the QP depth at 2 and drives
// more concurrent demand faults than slots: ErrQPFull must push the
// faulting threads into the pause-until-slot-frees path, and every
// fault must still complete (no lost wakeups).
func TestTinyQPFaultPathMakesProgress(t *testing.T) {
	env := sim.NewEnv(1)
	mgr := NewManager(env, DefaultConfig(32*PageSize))
	rcfg := rdma.DefaultConfig()
	rcfg.QPDepth = 2
	nic := rdma.NewNIC(env, rcfg)
	node := memnode.New(1 << 30)
	cq := rdma.NewCQ("test")
	qp := nic.CreateQP("test", cq)
	cq.Notify = func() {
		for _, comp := range cq.Poll(64) {
			mgr.Complete(comp.Cookie.(*Fetch), comp.Err)
		}
	}
	sp := mgr.NewSpace("data", node.MustAlloc("data", 32*PageSize))

	done := 0
	for i := 0; i < 16; i++ {
		d := newHarness(mgr, qp)
		d.load(sp, int64(i)*PageSize, make([]byte, 8))
		d.do(func() { done++ })
	}
	env.RunAll()
	if done != 16 {
		t.Fatalf("done = %d, want 16 (lost wakeup on full QP?)", done)
	}
	if mgr.Faults.Value() != 16 {
		t.Fatalf("faults = %d", mgr.Faults.Value())
	}
	if err := mgr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
