package vecdb

import (
	"testing"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/workload/steptest"
)

// search queues one query through the index's stepper; done gets the
// answer.
func search(th *steptest.Thread, idx *Index, payload any, done func(*Query)) {
	th.Run(idx.StepHandler(), payload, func(resp any, _ int) {
		if done != nil {
			done(resp.(*Query))
		}
	})
}

func smallConfig() Config {
	cfg := DefaultConfig(3000)
	cfg.Dim = 32
	cfg.NList = 16
	cfg.NProbe = 6
	cfg.K = 5
	return cfg
}

// newRig builds the index over a paging rig sized to localFrac of it.
func newRig(t *testing.T, cfg Config, localFrac float64) (*sim.Env, *paging.Manager, *Index, *steptest.Rig) {
	t.Helper()
	env := sim.NewEnv(23)
	local := int64(localFrac * float64(Footprint(cfg)))
	if local < 16*paging.PageSize {
		local = 16 * paging.PageSize
	}
	mgr := paging.NewManager(env, paging.DefaultConfig(local))
	idx := NewBlueprint(cfg).Instantiate(mgr, memnode.New(4<<30))
	idx.WarmCache()
	return env, mgr, idx, steptest.NewRig(mgr)
}

func TestIndexCoversAllVectors(t *testing.T) {
	cfg := smallConfig()
	env := sim.NewEnv(1)
	idx := NewBlueprint(cfg).Instantiate(paging.NewManager(env, paging.DefaultConfig(64*paging.PageSize)), memnode.New(4<<30))
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
	env, _, idx, rig := newRig(t, cfg, 0.25)
	hits := 0
	th := rig.Thread()
	rng := sim.NewRNG(3)
	for trial := 0; trial < 20; trial++ {
		payload, _ := idx.NextRequest(rng, nil)
		q := payload.(*Query)
		search(th, idx, q, func(res *Query) {
			if len(res.Neighbors) != cfg.K {
				t.Fatalf("got %d neighbors, want %d", len(res.Neighbors), cfg.K)
			}
			// Results must be sorted ascending by distance.
			for i := 1; i < len(res.Neighbors); i++ {
				if res.Neighbors[i].Dist < res.Neighbors[i-1].Dist {
					t.Fatal("results not sorted")
				}
			}
			// The perturbed source vector should usually be the nearest.
			bf := idx.BruteForce(q.Vec)
			if res.Neighbors[0].ID == bf.Neighbors[0].ID {
				hits++
			}
		})
	}
	env.Run(sim.Seconds(600))
	// IVF with NProbe=6/16 lists: top-1 should match brute force most
	// of the time on clustered data.
	if hits < 15 {
		t.Fatalf("top-1 agreement with brute force = %d/20", hits)
	}
}

func TestRecallAgainstBruteForce(t *testing.T) {
	cfg := smallConfig()
	env, _, idx, rig := newRig(t, cfg, 0.25)
	var recallSum float64
	const trials = 10
	th := rig.Thread()
	rng := sim.NewRNG(7)
	for trial := 0; trial < trials; trial++ {
		payload, _ := idx.NextRequest(rng, nil)
		q := payload.(*Query)
		search(th, idx, q, func(approx *Query) {
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
		})
	}
	env.Run(sim.Seconds(600))
	recall := recallSum / trials
	if recall < 0.6 {
		t.Fatalf("recall@%d = %.2f, want ≥ 0.6 for clustered data", cfg.K, recall)
	}
}

func TestSearchFaultsAndCosts(t *testing.T) {
	cfg := smallConfig()
	env, mgr, idx, rig := newRig(t, cfg, 0.2)
	var faults int64
	var service sim.Time
	th := rig.Thread()
	payload, _ := idx.NextRequest(sim.NewRNG(5), nil)
	var start sim.Time
	th.Do(func() { start = env.Now() })
	search(th, idx, payload, func(*Query) {
		service = env.Now() - start
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
