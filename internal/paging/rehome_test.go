package paging

import (
	"testing"

	"repro/internal/memnode"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/simcheck"
)

// rehomeRig is a manager over a striped, replicated region (page p's
// slot k lives on node (p+k) mod nodes) with one set of engine QPs, and
// nothing else running: every event in the run is the engine's.
type rehomeRig struct {
	env *sim.Env
	mgr *Manager
	fab rdma.Fabric
	sp  *Space
	qps []*rdma.QP
	cq  *rdma.CQ
}

func newRehomeRig(nodes, replicas int, pages int64, rcfg func(*rdma.Config)) *rehomeRig {
	env := sim.NewEnv(1)
	rc := rdma.DefaultConfig()
	if rcfg != nil {
		rcfg(&rc)
	}
	r := &rehomeRig{env: env, mgr: NewManager(env, DefaultConfig(16*PageSize)),
		fab: rdma.NewFabric(env, rc, nodes), cq: rdma.NewCQ("rehome")}
	mn := make([]*memnode.Node, nodes)
	for i := range mn {
		mn[i] = memnode.New(1 << 24)
	}
	cluster := memnode.NewCluster(mn, PageSize, memnode.Placement{Nodes: nodes, Block: 1, Replicas: replicas})
	r.sp = r.mgr.NewSpace("data", cluster.MustAlloc("data", pages*PageSize))
	r.qps = r.fab.CreateQPs("rehome", r.cq)
	return r
}

// primaryTo is the job "move page vpn's primary to node dst".
func (r *rehomeRig) primaryTo(vpn int64, dst int) RehomeJob {
	return RehomeJob{Space: r.sp, VPN: vpn, Src: r.sp.Owner(vpn, 0), Dst: dst}
}

// scriptPlanner is a fake planner: a queue whose head stays put until it
// lands or is dropped, scripted answers, and a log of every question
// with the time it was asked.
type scriptPlanner struct {
	env   *sim.Env
	jobs  []RehomeJob
	ready func(n int) Landing                // n-th Ready call, from 0; nil = Land
	keep  func(j *RehomeJob, err error) bool // may re-plan the head; nil = keep

	nextAt, readyAt, keepAt, landedAt []sim.Time
	errs                              []error
	landed                            []RehomeJob
}

func (p *scriptPlanner) pop() { p.jobs = p.jobs[1:] }

func (p *scriptPlanner) Next() (RehomeJob, bool) {
	p.nextAt = append(p.nextAt, p.env.Now())
	if len(p.jobs) == 0 {
		return RehomeJob{}, false
	}
	return p.jobs[0], true
}

func (p *scriptPlanner) Ready(RehomeJob) Landing {
	p.readyAt = append(p.readyAt, p.env.Now())
	v := Land
	if p.ready != nil {
		v = p.ready(len(p.readyAt) - 1)
	}
	if v == LandNever {
		p.pop()
	}
	return v
}

func (p *scriptPlanner) Keep(_ RehomeJob, err error) bool {
	p.keepAt = append(p.keepAt, p.env.Now())
	p.errs = append(p.errs, err)
	if p.keep != nil && !p.keep(&p.jobs[0], err) {
		p.pop()
		return false
	}
	return true
}

func (p *scriptPlanner) Landed(j RehomeJob) {
	p.landedAt = append(p.landedAt, p.env.Now())
	p.landed = append(p.landed, j)
	p.pop()
}

func (r *rehomeRig) engine(bw float64, p *scriptPlanner) *Rehomer {
	p.env = r.env
	return NewRehomer(r.mgr, "rehome", r.qps, r.cq, bw, p)
}

// failNth fails the n-th work request its NIC sees (from 0).
type failNth struct{ n, seen int }

func (f *failNth) WROutcome(rdma.OpKind, int) (bool, sim.Time) {
	f.seen++
	return f.seen-1 == f.n, 0
}
func (f *failNth) LinkFactor(sim.Time) float64  { return 1 }
func (f *failNth) ServeDelay(sim.Time) sim.Time { return 0 }

// fakeHealth is a scripted failure detector.
type fakeHealth struct{ dead map[int]bool }

func (h *fakeHealth) Live(n int) bool   { return !h.dead[n] }
func (h *fakeHealth) ReportTimeout(int) {}

// TestRehomerPacesAndLands: N copies take at least N gaps (the bandwidth
// cap holds), every landing re-points its slot in the owner table, and
// the drained engine is idle with no copy left in flight — the
// state-machine oracle's condition.
func TestRehomerPacesAndLands(t *testing.T) {
	const n, bw = 8, 0.5
	r := newRehomeRig(4, 1, n, nil)
	p := &scriptPlanner{}
	for vpn := int64(0); vpn < n; vpn++ {
		p.jobs = append(p.jobs, r.primaryTo(vpn, int(vpn+1)%4))
	}
	e := r.engine(bw, p)
	if !e.Idle() {
		t.Fatal("a new engine is not idle")
	}
	e.Kick()
	r.env.Run(sim.Millis(1))

	gap := sim.Time(PageSize / bw)
	if len(p.landed) != n {
		t.Fatalf("landed %d of %d", len(p.landed), n)
	}
	for i := 1; i < n; i++ {
		if d := p.landedAt[i] - p.landedAt[i-1]; d < gap {
			t.Fatalf("landings %d and %d are %d cycles apart, under the %d-cycle gap", i-1, i, d, gap)
		}
	}
	// The engine also sits out the gap after the last copy before it
	// finds the queue empty.
	if last := p.nextAt[len(p.nextAt)-1]; last < n*gap {
		t.Fatalf("%d copies finished by %d, faster than %d x gap = %d", n, last, n, n*gap)
	}
	for _, j := range p.landed {
		if got := r.sp.Owner(j.VPN, 0); got != j.Dst {
			t.Fatalf("page %d answers node %d after landing on %d", j.VPN, got, j.Dst)
		}
	}
	if !e.Idle() || e.t.Armed() || e.Retries.Value() != 0 {
		t.Fatalf("drained engine: idle=%v armed=%v retries=%d", e.Idle(), e.t.Armed(), e.Retries.Value())
	}
	for vpn := int64(0); vpn < n; vpn++ {
		if m := r.mgr.mirrorMask(r.sp, vpn); m != 0 {
			t.Fatalf("idle engine still mirrors page %d to %#x", vpn, m)
		}
	}
	// A kick with nothing queued asks once and goes back to sleep.
	asked := len(p.nextAt)
	e.Kick()
	r.env.Run(sim.Millis(2))
	if len(p.nextAt) != asked+1 || !e.Idle() {
		t.Fatalf("empty kick: asked %d more times, idle=%v", len(p.nextAt)-asked, e.Idle())
	}
}

// TestRehomerBacksOff: an errored completion and a refused post each
// cost one RetryBackoff and one more question to the planner. The
// source's QP stays in its error state past the first backoff (reset
// delay 15 µs against a 10 µs backoff), so the retry's post is refused
// once before the third attempt goes through.
func TestRehomerBacksOff(t *testing.T) {
	r := newRehomeRig(4, 1, 4, func(c *rdma.Config) { c.ResetDelay = sim.Micros(15) })
	r.fab[0].SetInterceptor(&failNth{n: 0})
	p := &scriptPlanner{jobs: []RehomeJob{r.primaryTo(0, 1)}}
	e := r.engine(0.5, p)
	e.Kick()
	r.env.Run(sim.Millis(1))

	backoff := r.mgr.cfg.RetryBackoff
	if len(p.keepAt) != 1 || len(p.landed) != 1 || e.Retries.Value() != 2 {
		t.Fatalf("errors=%d landed=%d retries=%d, want 1, 1, 2", len(p.keepAt), len(p.landed), e.Retries.Value())
	}
	// Asked at 0 (errored), then one backoff after the error (refused),
	// then one backoff later (posted), then one gap after the landing.
	if len(p.nextAt) != 4 || p.nextAt[1] != p.keepAt[0]+backoff || p.nextAt[2] != p.nextAt[1]+backoff {
		t.Fatalf("planner asked at %v around an error at %v; want steps of %d", p.nextAt, p.keepAt, backoff)
	}
	if got := r.sp.Owner(0, 0); got != 1 {
		t.Fatalf("page 0 answers node %d, want 1", got)
	}
}

// TestRehomerKeepOrDrop: after ErrNodeDead the planner's Keep decides.
// Kept, the job is asked for again after a backoff and may come back
// re-planned; dropped, it never lands and the queue moves on.
func TestRehomerKeepOrDrop(t *testing.T) {
	for _, tc := range []struct {
		name    string
		keep    bool
		retries int64
		landed  int
	}{{"keep", true, 1, 2}, {"drop", false, 0, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRehomeRig(4, 2, 4, nil)
			r.fab[1].ScheduleCrash(0, 0) // node 1 is dead from the start
			// Page 0 lives on nodes 0 and 1: first try to move its primary
			// onto the dead node; page 2 (nodes 2 and 3) is the bystander.
			p := &scriptPlanner{jobs: []RehomeJob{r.primaryTo(0, 1), r.primaryTo(2, 0)}}
			p.keep = func(j *RehomeJob, err error) bool {
				j.Dst = 2 // the re-plan, if the job is kept
				return tc.keep
			}
			e := r.engine(0.5, p)
			e.Kick()
			r.env.Run(sim.Millis(1))

			if len(p.errs) != 1 || p.errs[0] != rdma.ErrNodeDead {
				t.Fatalf("errors seen: %v, want one ErrNodeDead", p.errs)
			}
			if p.nextAt[1] != p.keepAt[0]+r.mgr.cfg.RetryBackoff {
				t.Fatalf("re-asked at %d after an error at %d", p.nextAt[1], p.keepAt[0])
			}
			if e.Retries.Value() != tc.retries {
				t.Fatalf("retries = %d, want %d", e.Retries.Value(), tc.retries)
			}
			want := map[int64]int{0: 0, 2: 0} // dropped: page 0 stays home
			if tc.keep {
				want[0] = 2
			}
			for vpn, node := range want {
				if got := r.sp.Owner(vpn, 0); got != node {
					t.Fatalf("page %d answers node %d, want %d", vpn, got, node)
				}
			}
			if len(p.landed) != tc.landed || !e.Idle() {
				t.Fatalf("landed %d, want %d; idle=%v", len(p.landed), tc.landed, e.Idle())
			}
		})
	}
}

// TestRehomerWaitsForReady: while the planner says LandLater the owner
// table does not move, the copy stays in flight (write-backs mirror to
// the destination), and the question comes back every RetryBackoff; the
// landing then happens exactly once. LandNever abandons the copy.
func TestRehomerWaitsForReady(t *testing.T) {
	r := newRehomeRig(4, 1, 4, nil)
	p := &scriptPlanner{jobs: []RehomeJob{r.primaryTo(0, 1), r.primaryTo(1, 2), r.primaryTo(2, 3)}}
	p.ready = func(n int) Landing {
		switch {
		case n < 3:
			return LandLater // page 0: three deferrals, then the landing
		case n == 4:
			return LandNever // page 1
		}
		return Land
	}
	e := r.engine(0.5, p)
	e.Kick()
	backoff := r.mgr.cfg.RetryBackoff
	var during struct {
		owner int
		mask  uint64
	}
	r.env.At(sim.Micros(20), func() { // between the second and third deferral
		during.owner, during.mask = r.sp.Owner(0, 0), r.mgr.mirrorMask(r.sp, 0)
	})
	r.env.Run(sim.Millis(1))

	if during.owner != 0 || during.mask != 1<<1 {
		t.Fatalf("while deferred: owner %d, mirror mask %#x; want 0, 0x2", during.owner, during.mask)
	}
	for i := 1; i <= 3; i++ {
		if d := p.readyAt[i] - p.readyAt[i-1]; d != backoff {
			t.Fatalf("Ready re-asked after %d cycles, want %d", d, backoff)
		}
	}
	if len(p.landed) != 2 || p.landed[0].VPN != 0 || p.landedAt[0] != p.readyAt[3] || p.landed[1].VPN != 2 {
		t.Fatalf("landed %v at %v (Ready asked at %v)", p.landed, p.landedAt, p.readyAt)
	}
	if got := r.sp.Owner(1, 0); got != 1 {
		t.Fatalf("dropped job moved page 1 to node %d", got)
	}
	// A dropped copy used its bandwidth: the next job starts a gap later.
	if d := p.nextAt[2] - p.readyAt[4]; d != e.gap {
		t.Fatalf("job after the drop asked for after %d cycles, want the %d-cycle gap", d, e.gap)
	}
}

// TestOwnerTable: the table stays nil, and the placement answers, until
// the first re-home; a re-homed slot then answers its new node and every
// other slot the placement. An out-of-range slot or node panics.
func TestOwnerTable(t *testing.T) {
	r := newRehomeRig(4, 2, 8, nil)
	sp := r.sp
	owners := func(want map[[2]int64]int) {
		t.Helper()
		for vpn := int64(0); vpn < sp.Pages(); vpn++ {
			for k := 0; k < 2; k++ {
				node, ok := want[[2]int64{vpn, int64(k)}]
				if !ok {
					node = int(vpn+int64(k)) % 4 // the placement
				}
				if got := sp.Owner(vpn, k); got != node {
					t.Fatalf("page %d slot %d answers node %d, want %d", vpn, k, got, node)
				}
			}
		}
	}
	owners(nil)
	if sp.owners != nil {
		t.Fatal("owner table allocated before any re-home")
	}
	sp.rehome(1, 1, 3)
	owners(map[[2]int64]int{{1, 1}: 3})
	sp.rehome(1, 0, 0)
	owners(map[[2]int64]int{{1, 1}: 3, {1, 0}: 0})

	for _, bad := range []struct {
		name string
		fn   func()
	}{
		{"slot past the factor", func() { sp.rehome(0, 2, 1) }},
		{"negative slot", func() { sp.rehome(0, -1, 1) }},
		{"node past the cluster", func() { sp.rehome(0, 0, 4) }},
		{"negative node", func() { sp.rehome(0, 0, -1) }},
		{"lookup past the factor", func() { sp.Owner(0, 2) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", bad.name)
				}
			}()
			bad.fn()
		}()
	}
	owners(map[[2]int64]int{{1, 1}: 3, {1, 0}: 0})
}

// TestLandingUnderAFetchIsStale: with the oracles armed, a landing that
// retires a live node's copy while a fetch of the page is in flight
// raises migrate/stale-read as it lands; one that retires a dead node's
// copy (a repair) under a fetch raises nothing.
func TestLandingUnderAFetchIsStale(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)
	r := newRehomeRig(4, 2, 4, nil)
	r.mgr.SetHealth(&fakeHealth{dead: map[int]bool{3: true}})
	// Page 2 (nodes 2, 3): slot 1 is restored off dead node 3. Page 0
	// (nodes 0, 1): the primary moves off live node 0.
	p := &scriptPlanner{jobs: []RehomeJob{
		{Space: r.sp, VPN: 2, Slot: 1, Src: 2, Dst: 0},
		r.primaryTo(0, 2),
	}}
	for _, vpn := range []int64{0, 2} {
		f := r.mgr.newFetch(r.sp, vpn, r.mgr.popFrame(), false, true)
		r.mgr.move(r.sp, vpn, edgeFetch, f)
	}
	r.engine(0.5, p).Kick()
	if got := violation(func() { r.env.Run(sim.Millis(1)) }); got != "migrate/stale-read" {
		t.Fatalf("landing across a live copy under a fetch raised %q, want migrate/stale-read", got)
	}
	if len(p.landed) != 1 || p.landed[0].VPN != 2 || r.sp.Owner(2, 1) != 0 {
		t.Fatalf("landed %v, page 2 slot 1 on node %d: the repair under a fetch did not land quietly",
			p.landed, r.sp.Owner(2, 1))
	}
	if got := r.sp.Owner(0, 0); got != 0 {
		t.Fatalf("page 0 moved to node %d before the oracle fired", got)
	}
}

// TestRepairLatencyIsPerWave: a second down verdict arriving while the
// first wave is still queued must not restart the first wave's clock.
// The flap re-reports node 1 once three of the four first-wave copies
// have landed; the fourth is still timed from the first verdict, so it
// is the slowest repair of the run.
func TestRepairLatencyIsPerWave(t *testing.T) {
	r := newRehomeRig(4, 2, 8, nil)
	r.mgr.SetHealth(&fakeHealth{dead: map[int]bool{1: true}})
	rep := NewRepairer(r.mgr, r.qps, r.cq)
	rep.NodeDown(1) // node 1 holds slot 0 of pages 1, 5 and slot 1 of pages 0, 4
	if rep.Pending() != 4 {
		t.Fatalf("first wave queued %d jobs, want 4", rep.Pending())
	}
	var flap sim.Time
	var watch func()
	watch = func() {
		if rep.Repaired.Value() < 3 {
			r.env.After(sim.Micros(1), watch)
			return
		}
		flap = r.env.Now()
		rep.NodeDown(1)
	}
	watch()
	r.env.Run(sim.Millis(1))

	if rep.Repaired.Value() != 4 || rep.Pending() != 0 {
		t.Fatalf("repaired %d, pending %d", rep.Repaired.Value(), rep.Pending())
	}
	if max := sim.Time(rep.RepairLat.Max()); flap == 0 || max <= flap {
		t.Fatalf("slowest repair took %d cycles from its verdict, but the last first-wave copy "+
			"landed after the flap at %d: it was timed from the second verdict", max, flap)
	}
	if err := r.mgr.CheckReplication(); err != nil {
		t.Fatal(err)
	}
}

// TestRepairDropsCopyWhenOwnerRejoins: node 2 dies and repair starts
// copying page 1's replica (slot 1, on node 2) from node 1 to node 0;
// node 2 turns live again while the copy is in flight. The slot answers
// a live node once more, so landing would retire a readable copy with no
// quiescence: the copy is dropped, as a job whose owner rejoined before
// its copy started is, and so is the queued page 2.
func TestRepairDropsCopyWhenOwnerRejoins(t *testing.T) {
	r := newRehomeRig(4, 2, 4, nil)
	h := &fakeHealth{dead: map[int]bool{2: true}}
	r.mgr.SetHealth(h)
	rep := NewRepairer(r.mgr, r.qps, r.cq)
	rep.NodeDown(2) // slot 1 of page 1, slot 0 of page 2
	var inFlight uint64
	r.env.At(sim.Micros(1), func() {
		inFlight = r.mgr.mirrorMask(r.sp, 1)
		delete(h.dead, 2)
	})
	r.env.Run(sim.Millis(1))

	if inFlight != 1<<0 {
		t.Fatalf("at the rejoin page 1's copy mirrors to %#x, want node 0 (0x1)", inFlight)
	}
	if rep.Repaired.Value() != 0 || rep.Pending() != 0 || !rep.Idle() {
		t.Fatalf("repaired %d, pending %d, idle %v; want 0, 0, true",
			rep.Repaired.Value(), rep.Pending(), rep.Idle())
	}
	if a, b := r.sp.Owner(1, 1), r.sp.Owner(2, 0); a != 2 || b != 2 {
		t.Fatalf("page 1 slot 1 on node %d, page 2 slot 0 on node %d; want both on the rejoined node 2", a, b)
	}
	if r.sp.owners != nil {
		t.Fatal("no copy landed, yet the owner table was written")
	}
}
