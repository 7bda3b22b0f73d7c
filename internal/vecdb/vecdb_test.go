package vecdb

import (
	"testing"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/workload"
)

type ctxThread struct {
	env  *sim.Env
	proc *sim.Proc
	mgr  *paging.Manager
	qp   *rdma.QP
	gate *sim.Gate
}

func (t *ctxThread) Proc() *sim.Proc      { return t.proc }
func (t *ctxThread) QP(node int) *rdma.QP { return t.qp }
func (t *ctxThread) Rand() *sim.RNG       { return t.env.Rand() }
func (t *ctxThread) Compute(d sim.Time)   { t.proc.Sleep(d) }
func (t *ctxThread) Probe()               {}
func (t *ctxThread) CriticalEnter()       {}
func (t *ctxThread) CriticalExit()        {}
func (t *ctxThread) Block(enqueue func(wake func())) {
	done := false
	enqueue(func() {
		done = true
		t.gate.Wake()
	})
	for !done {
		t.gate.Wait(t.proc)
	}
}

func (t *ctxThread) WaitPage(s *paging.Space, vpn int64) {
	for !s.Resident(vpn) {
		if t.mgr.RequestPage(t, s, vpn, func(error) { t.gate.Wake() }, true) {
			return
		}
		t.gate.Wait(t.proc)
	}
}

// search runs one query through the index's Handler: the stepper, driven
// under a blocking context by workload.Direct.
func search(ctx workload.Ctx, idx *Index, payload any) *Query {
	resp, _ := idx.Handler()(ctx, payload)
	return resp.(*Query)
}

func smallConfig() Config {
	cfg := DefaultConfig(3000)
	cfg.Dim = 32
	cfg.NList = 16
	cfg.NProbe = 6
	cfg.K = 5
	return cfg
}

func newRig(t *testing.T, cfg Config, localFrac float64) (*sim.Env, *paging.Manager, *Index, *rdma.QP) {
	t.Helper()
	env := sim.NewEnv(23)
	probeEnv := sim.NewEnv(23)
	probe := New(paging.NewManager(probeEnv, paging.DefaultConfig(paging.PageSize)), memnode.New(4<<30), cfg)
	local := int64(localFrac * float64(probe.SpaceSize()))
	if local < 16*paging.PageSize {
		local = 16 * paging.PageSize
	}
	mgr := paging.NewManager(env, paging.DefaultConfig(local))
	idx := New(mgr, memnode.New(4<<30), cfg)
	idx.WarmCache()

	nic := rdma.NewNIC(env, rdma.DefaultConfig())
	cq := rdma.NewCQ("t")
	qp := nic.CreateQP("t", cq)
	cq.Notify = func() {
		for _, c := range cq.Poll(64) {
			mgr.Complete(c.Cookie.(*paging.Fetch), c.Err)
		}
	}
	rcq := rdma.NewCQ("reclaim")
	mgr.StartReclaimer(nic.CreateQP("reclaim", rcq), rcq)
	return env, mgr, idx, qp
}

func TestIndexCoversAllVectors(t *testing.T) {
	cfg := smallConfig()
	env := sim.NewEnv(1)
	idx := New(paging.NewManager(env, paging.DefaultConfig(64*paging.PageSize)), memnode.New(4<<30), cfg)
	var total int32
	for _, n := range idx.listLen {
		total += n
	}
	if int(total) != cfg.N {
		t.Fatalf("lists cover %d vectors, want %d", total, cfg.N)
	}
}

func TestSearchFindsPerturbedSelf(t *testing.T) {
	cfg := smallConfig()
	env, mgr, idx, qp := newRig(t, cfg, 0.25)
	hits := 0
	env.Go("driver", func(p *sim.Proc) {
		ctx := &ctxThread{env: env, proc: p, mgr: mgr, qp: qp, gate: sim.NewGate(env)}
		rng := sim.NewRNG(3)
		for trial := 0; trial < 20; trial++ {
			payload, _ := idx.NextRequest(rng, nil)
			q := payload.(*Query)
			res := search(ctx, idx, q)
			if len(res.Neighbors) != cfg.K {
				t.Errorf("got %d neighbors, want %d", len(res.Neighbors), cfg.K)
				return
			}
			// Results must be sorted ascending by distance.
			for i := 1; i < len(res.Neighbors); i++ {
				if res.Neighbors[i].Dist < res.Neighbors[i-1].Dist {
					t.Error("results not sorted")
					return
				}
			}
			// The perturbed source vector should usually be the nearest.
			bf := idx.BruteForce(q.Vec)
			if res.Neighbors[0].ID == bf.Neighbors[0].ID {
				hits++
			}
		}
	})
	env.Run(sim.Seconds(600))
	// IVF with NProbe=6/16 lists: top-1 should match brute force most
	// of the time on clustered data.
	if hits < 15 {
		t.Fatalf("top-1 agreement with brute force = %d/20", hits)
	}
}

func TestRecallAgainstBruteForce(t *testing.T) {
	cfg := smallConfig()
	env, mgr, idx, qp := newRig(t, cfg, 0.25)
	var recallSum float64
	const trials = 10
	env.Go("driver", func(p *sim.Proc) {
		ctx := &ctxThread{env: env, proc: p, mgr: mgr, qp: qp, gate: sim.NewGate(env)}
		rng := sim.NewRNG(7)
		for trial := 0; trial < trials; trial++ {
			payload, _ := idx.NextRequest(rng, nil)
			q := payload.(*Query)
			approx := search(ctx, idx, q)
			exact := idx.BruteForce(q.Vec)
			got := map[uint32]bool{}
			for _, n := range approx.Neighbors {
				got[n.ID] = true
			}
			match := 0
			for _, n := range exact.Neighbors {
				if got[n.ID] {
					match++
				}
			}
			recallSum += float64(match) / float64(cfg.K)
		}
	})
	env.Run(sim.Seconds(600))
	recall := recallSum / trials
	if recall < 0.6 {
		t.Fatalf("recall@%d = %.2f, want ≥ 0.6 for clustered data", cfg.K, recall)
	}
}

func TestSearchFaultsAndCosts(t *testing.T) {
	cfg := smallConfig()
	env, mgr, idx, qp := newRig(t, cfg, 0.2)
	var faults int64
	var service sim.Time
	env.Go("driver", func(p *sim.Proc) {
		ctx := &ctxThread{env: env, proc: p, mgr: mgr, qp: qp, gate: sim.NewGate(env)}
		rng := sim.NewRNG(5)
		payload, _ := idx.NextRequest(rng, nil)
		start := p.Now()
		search(ctx, idx, payload)
		service = p.Now() - start
		faults = mgr.Faults.Value()
	})
	env.Run(sim.Seconds(600))
	if faults == 0 {
		t.Fatal("search did not fault at 20% residency")
	}
	// Scan ≈ N/NList×NProbe vectors with VecCost each, plus faults:
	// service must be far beyond a simple request's microseconds.
	if service < sim.Micros(100) {
		t.Fatalf("search service time %v implausibly small", service)
	}
}

func TestSampleVector(t *testing.T) {
	cfg := smallConfig()
	env := sim.NewEnv(1)
	idx := New(paging.NewManager(env, paging.DefaultConfig(64*paging.PageSize)), memnode.New(4<<30), cfg)
	v := idx.SampleVector(100)
	if v == nil || len(v) != cfg.Dim {
		t.Fatal("sample vector 100 not found")
	}
	if idx.SampleVector(cfg.N+5) != nil {
		t.Fatal("found nonexistent vector")
	}
}
