package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/migrate"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/workload"
)

// configSeed is one drawn configuration: the fields Config.Validate
// judges, the two spec strings as a CLI passes them, and the offered
// rate loadgen judges.
type configSeed struct {
	mode         uint8
	nodes, reps  int
	block, pages int64
	faults, migr string
	rps          float64
}

// microLocal is adios-sim's default frame pool in pages: -local 0.2 of the
// 64 MiB micro array.
const microLocal = 3276

// configSeeds are TestCrashPlanValidatesNode's cases and the config of
// every TestRunRejectsBadInput row of both CLIs (adios-bench's at the
// node count its experiment builds).
var configSeeds = []configSeed{
	{0, 4, 2, 0, 409, "crash=1ms:node=4", "", 1e6},
	{0, 4, 2, 0, 409, "wr=0.1,node=4", "", 1e6},
	{0, MaxMemNodes + 1, 2, 0, 409, "", "", 1e6},
	// adios-sim
	{0, 1, 1, 0, 0, "", "", 1e6},
	{0, 1, 1, 0, -16384, "", "", 1e6},
	{0, 1, 1, 0, 1.6e14, "", "", 1e6},
	{0, 1, 1, 0, 1 << 62, "", "", 1e6},
	{0, 1, 1, 0, microLocal, "", "", 1e6},
	{0, 2, 1, 0, microLocal, "crash=1ms:node=5", "", 1e6},
	{0, 70, 2, 0, microLocal, "crash=200us:node=69", "", 1e6},
	{0, -3, 1, 0, microLocal, "", "", 1e6},
	{0, 1, -2, 0, microLocal, "", "", 1e6},
	{0, 1, 1, 0, microLocal, "node=7,wr=0.1", "", 1e6},
	{0, 1, 1, 0, microLocal, "", "", 0},
	{0, 1, 1, 0, microLocal, "", "", -5},
	{0, 1, 1, 0, microLocal, "", "", 1e-10},
	{0, 1, 1, 0, microLocal, "", "", 1e10},
	{0, 1, 2, 0, microLocal, "", "", 1e6},
	{0, 4, 5, 0, microLocal, "", "", 1e6},
	{0, 4, 1, 4096, 163, "", "epoch=200us,hot=4,bw=1e-300,imb=1.2,max=256,min=16", 2.6e6},
	{0, 4, 1, -5, microLocal, "", "", 1e6},
	{0, 1, 1, 0, microLocal, "", "on", 1e6},
	{0, 2, 2, 0, microLocal, "crash=1ms:node=1", "", 1.3e6},
	{0, 1, 1, 0, microLocal, "", "", 100},
	{0, 4, 2, 0, microLocal, "crash=1ms:node=1", "on", 1e6},
	{1, 1, 1, 0, microLocal, "", "", 3e5},
	// adios-bench
	{1, 1, 1, 0, microLocal, "crash=1ms:node=9", "", 1.3e6},
	{1, 1, 1, 0, microLocal, "crash=1ms:node=2", "", 1.3e6},
	{1, 0, 1, 0, microLocal, "", "", 1.3e6},
	{1, 1, 0, 0, microLocal, "", "", 1.3e6},
	{1, 1, 1, 0, microLocal, "", "bw=1e-300", 1.3e6},
	{0, 4, 1, 0, microLocal, "crash=1ms:node=0", "", 6e5},
	{1, 1, 3, 0, microLocal, "", "", 1.3e6},
	{1, 1, 2, 0, microLocal, "", "", 1.3e6},
	{0, 4, 1, 0, microLocal, "wr=0.01,node=3", "", 6e5},
	{0, 4, 2, 0, microLocal, "", "", 6e5},
	{2, 2, 1, 0, microLocal, "wr=0.01,seed=3", "", 1e6},
	{3, 3, 2, 0, microLocal, "rnr=0.01:5us,link=300us:50us:4,mem=800us:100us", "", 1e6},
	{4, 1, 1, 0, microLocal, "", "", 2e5},
}

// FuzzConfig: Validate is the whole of what NewSystem and loadgen
// refuse. A config Validate rejects makes NewSystem panic with exactly
// its error, before anything is built; one it accepts builds, and a
// 256-page ArrayApp runs on it over a 100 µs window, oracles armed,
// without a panic or an audit violation — unless the rate is one
// loadgen.CheckRate rejects, which makes Start panic with that error.
func FuzzConfig(f *testing.F) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)
	for _, s := range configSeeds {
		f.Add(s.mode, s.nodes, s.reps, s.block, s.pages, s.faults, s.migr, s.rps)
	}
	f.Fuzz(func(t *testing.T, mode uint8, nodes, reps int, block, pages int64, faultSpec, migrSpec string, rps float64) {
		plan, ferr := faults.ParseSpec(faultSpec)
		mc, merr := migrate.ParseSpec(migrSpec)
		if ferr != nil || merr != nil {
			t.Skip("the spec parsers have fuzzers of their own")
		}
		cfg := Preset(Mode(mode%5), pages*paging.PageSize)
		cfg.MemNodes, cfg.Replicas, cfg.Block, cfg.Faults, cfg.Migrate = nodes, reps, block, plan, mc
		if err := cfg.Validate(); err != nil {
			want := "core: " + err.Error()
			defer func() {
				if r := recover(); r != want {
					t.Fatalf("NewSystem panicked with %v, want %q", r, want)
				}
			}()
			NewSystem(cfg)
			return
		}
		// Accepted, but too costly for a fuzz worker: a frame table past
		// 16 Ki frames, or a periodic fault or migration epoch under
		// 10 µs, which Run's 50 ms drain would repeat thousands of times.
		if cfg.Paging.FramePoolBytes > 1<<14*paging.PageSize || tooFrequent(plan.LinkEvery) ||
			tooFrequent(plan.MemEvery) || tooFrequent(mc.Epoch) {
			t.Skip("valid, but too costly to run here")
		}
		sys := NewSystem(cfg)
		app := workload.NewArrayApp(sys.Mgr, sys.Mem, 256*paging.PageSize)
		sys.StartApp(app)
		if err := loadgen.CheckRate(rps); err != nil {
			want := "loadgen: " + err.Error()
			defer func() {
				if r := recover(); r != want {
					t.Fatalf("Run panicked with %v, want %q", r, want)
				}
			}()
		}
		res := sys.Run(app, rps, 0, sim.Micros(100))
		if errs := sys.Audit(res, false); len(errs) > 0 {
			t.Fatalf("audit: %v", errs)
		}
	})
}

func tooFrequent(every sim.Time) bool { return every > 0 && every < sim.Micros(10) }
