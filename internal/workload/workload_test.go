package workload

import (
	"testing"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
)

func TestUniformDistribution(t *testing.T) {
	rng := sim.NewRNG(1)
	u := Uniform{Keys: 1000}
	if u.N() != 1000 {
		t.Fatal("N wrong")
	}
	buckets := make([]int, 10)
	for i := 0; i < 100000; i++ {
		k := u.Next(rng)
		if k < 0 || k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
		buckets[k/100]++
	}
	for _, b := range buckets {
		if b < 9000 || b > 11000 {
			t.Fatalf("uniform buckets skewed: %v", buckets)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	rng := sim.NewRNG(1)
	z := &Zipfian{Keys: 10000, S: 1.2}
	if z.N() != 10000 {
		t.Fatal("N wrong")
	}
	top, rest := 0, 0
	for i := 0; i < 50000; i++ {
		k := z.Next(rng)
		if k < 0 || k >= 10000 {
			t.Fatalf("key %d out of range", k)
		}
		if k < 100 {
			top++
		} else {
			rest++
		}
	}
	// 1% of keys must carry far more than 1% of accesses.
	if top < rest/4 {
		t.Fatalf("zipf not skewed: top=%d rest=%d", top, rest)
	}
}

// arrayThread is a minimal Ctx for driving the microbenchmark handler.
type arrayThread struct {
	env  *sim.Env
	proc *sim.Proc
	mgr  *paging.Manager
	qp   *rdma.QP
	gate *sim.Gate
}

func (t *arrayThread) Proc() *sim.Proc      { return t.proc }
func (t *arrayThread) QP(node int) *rdma.QP { return t.qp }
func (t *arrayThread) Rand() *sim.RNG       { return t.env.Rand() }
func (t *arrayThread) Compute(d sim.Time)   { t.proc.Sleep(d) }
func (t *arrayThread) Probe()               {}
func (t *arrayThread) CriticalEnter()       {}
func (t *arrayThread) CriticalExit()        {}
func (t *arrayThread) Block(enqueue func(wake func())) {
	done := false
	enqueue(func() { done = true; t.gate.Wake() })
	for !done {
		t.gate.Wait(t.proc)
	}
}
func (t *arrayThread) WaitPage(s *paging.Space, vpn int64) {
	for !s.Resident(vpn) {
		if t.mgr.RequestPage(t, s, vpn, func(error) { t.gate.Wake() }, true) {
			return
		}
		t.gate.Wait(t.proc)
	}
}

func TestArrayAppVerifiesValues(t *testing.T) {
	env := sim.NewEnv(1)
	const size = 1 << 20
	mgr := paging.NewManager(env, paging.DefaultConfig(size/5))
	node := memnode.New(1 << 30)
	app := NewArrayApp(mgr, node, size)
	app.WarmCache()

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

	env.Go("driver", func(p *sim.Proc) {
		ctx := &arrayThread{env: env, proc: p, mgr: mgr, qp: qp, gate: sim.NewGate(env)}
		h := app.Handler()
		rng := sim.NewRNG(2)
		for i := 0; i < 500; i++ {
			payload, reqBytes := app.NextRequest(rng, nil)
			if reqBytes != app.ReqBytes {
				t.Error("request size mismatch")
				return
			}
			resp, respBytes := h(ctx, payload)
			if respBytes != app.RespBytes {
				t.Error("response size mismatch")
				return
			}
			if resp != payload {
				t.Error("bad response type")
				return
			}
		}
	})
	env.Run(sim.Seconds(60))
	if app.Mismatches.Value() != 0 {
		t.Fatalf("mismatches = %d", app.Mismatches.Value())
	}
	if mgr.Faults.Value() == 0 {
		t.Fatal("expected faults at 20% residency")
	}
}
