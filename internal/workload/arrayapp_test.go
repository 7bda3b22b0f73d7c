package workload_test

import (
	"testing"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/workload/steptest"
)

func TestArrayAppVerifiesValues(t *testing.T) {
	env := sim.NewEnv(1)
	const size = 1 << 20
	mgr := paging.NewManager(env, paging.DefaultConfig(size/5))
	app := workload.NewArrayApp(mgr, memnode.New(1<<30), size)
	app.WarmCache()
	steptest.NewRig(mgr).Go(func(th *steptest.Thread) {
		rng := sim.NewRNG(2)
		for i := 0; i < 500; i++ {
			payload, reqBytes := app.NextRequest(rng, nil)
			if reqBytes != app.ReqBytes {
				t.Error("request size mismatch")
				return
			}
			resp, respBytes := th.Run(app.StepHandler(), payload)
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
