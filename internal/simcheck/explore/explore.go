// Package explore is the seed-swarm scenario explorer: FoundationDB-style
// simulation checking over the assembled system. From one master seed it
// derives a stream of scenarios — each a sampled point in the
// configuration × workload × fault-spec space — and runs every one with
// the simcheck oracles armed plus the end-of-run global audit
// (core.System.Audit). Any violation is reported with a one-line repro
// command and a greedily shrunk fault spec, so a swarm failure in CI
// reduces to a deterministic local run.
package explore

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/migrate"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/workload"
)

// Scenario is one sampled point. It is a pure function of (master seed,
// index) — see Generate — so printing the pair is a complete repro.
type Scenario struct {
	Index int
	Seed  int64 // run seed fed to core.Config.Seed

	Mode     core.Mode
	MemNodes int
	Replicas int

	ArrayBytes int64 // remote array size (page-aligned)
	LocalFrac  float64
	WriteFrac  float64
	Warm       bool

	RPS     float64
	Warmup  sim.Time
	Measure sim.Time

	Faults faults.Config

	// Migrate is the online page-migration plan (zero value = disabled,
	// identical to builds without migration support). Sampled only on
	// multi-node scenarios, where an owner flip means something.
	Migrate migrate.Config
	// Skew is the Zipfian key-skew exponent (0 = uniform). When set it is
	// strictly above 1 — math/rand's Zipf generator rejects s <= 1.
	Skew float64

	// Strict marks scenarios whose request conservation identity must
	// balance exactly: everything except a permanent crash with
	// replicas == 1, whose blast radius legitimately never drains.
	Strict bool
}

// String renders the scenario compactly for failure reports.
func (sc Scenario) String() string {
	spec := sc.Faults.String()
	if spec == "" {
		spec = "none"
	}
	extra := ""
	if sc.Migrate.Enabled {
		extra += fmt.Sprintf(" migrate=[%s]", sc.Migrate.String())
	}
	if sc.Skew > 0 {
		extra += fmt.Sprintf(" skew=%.2f", sc.Skew)
	}
	return fmt.Sprintf("scenario %d: mode=%s memnodes=%d replicas=%d array=%dKiB local=%.2f write=%.2f warm=%v rps=%.0f measure=%.1fms faults=[%s]%s",
		sc.Index, sc.Mode, sc.MemNodes, sc.Replicas, sc.ArrayBytes>>10,
		sc.LocalFrac, sc.WriteFrac, sc.Warm, sc.RPS, sc.Measure.Micros()/1000, spec, extra)
}

// src is a splitmix64 stream: deterministic, allocation-free, and
// independent of math/rand, so scenario sampling can never disturb (or
// be disturbed by) the simulation's own RNG streams.
type src struct{ state uint64 }

func (s *src) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// f64 returns a uniform float in [0, 1).
func (s *src) f64() float64 { return float64(s.next()>>11) / (1 << 53) }

// intIn returns a uniform int in [lo, hi].
func (s *src) intIn(lo, hi int) int { return lo + int(s.next()%uint64(hi-lo+1)) }

// timeIn returns a uniform sim.Time in [lo, hi].
func (s *src) timeIn(lo, hi sim.Time) sim.Time {
	return lo + sim.Time(s.next()%uint64(hi-lo+1))
}

const pageSize = paging.PageSize

// Generate derives scenario idx of the swarm rooted at masterSeed.
// short shrinks the measurement window for CI budgets. The sampler
// draws a fixed set of fields in a fixed order, so the same (seed, idx)
// pair always yields the identical scenario.
func Generate(masterSeed int64, idx int, short bool) Scenario {
	r := &src{state: uint64(masterSeed)*0x9E3779B97F4A7C15 ^ uint64(idx)*0xBF58476D1CE4E5B9}
	r.next() // discard the first output: low-entropy state on small seeds

	sc := Scenario{
		Index: idx,
		Seed:  int64(r.next()&0x7FFFFFFF) + 1,
	}
	if r.f64() < 0.75 {
		sc.Mode = core.Adios
	} else {
		sc.Mode = core.DiLOS
	}
	sc.MemNodes = r.intIn(1, 4)
	maxRep := sc.MemNodes
	if maxRep > 3 {
		maxRep = 3
	}
	sc.Replicas = r.intIn(1, maxRep)

	pages := int64(r.intIn(96, 512))
	sc.ArrayBytes = pages * pageSize
	sc.LocalFrac = 0.15 + 0.45*r.f64()
	if r.f64() < 0.6 {
		sc.WriteFrac = 0.05 + 0.25*r.f64()
	}
	sc.Warm = r.f64() < 0.7
	sc.RPS = float64(r.intIn(20, 120)) * 1000

	sc.Warmup = sim.Millis(0.5)
	if short {
		sc.Measure = sim.Millis(1.5 + 1.5*r.f64())
	} else {
		sc.Measure = sim.Millis(3 + 5*r.f64())
	}

	f := &sc.Faults
	f.Seed = int64(r.next()&0x7FFFFFFF) + 1
	if r.f64() < 0.35 {
		f.WRErrRate = ratePick(r)
	}
	if r.f64() < 0.35 {
		f.RNRRate = ratePick(r)
		f.RNRDelay = r.timeIn(sim.Micros(1), sim.Micros(10))
	}
	if r.f64() < 0.3 {
		f.LinkEvery = r.timeIn(sim.Micros(200), sim.Micros(1000))
		f.LinkFor = r.timeIn(sim.Micros(20), sim.Micros(100))
		f.LinkFactor = 2 + 6*r.f64()
	}
	if r.f64() < 0.3 {
		f.MemEvery = r.timeIn(sim.Micros(300), sim.Micros(1000))
		f.MemFor = r.timeIn(sim.Micros(10), sim.Micros(50))
	}
	if r.f64() < 0.35 {
		f.CrashSet = true
		f.CrashNode = r.intIn(0, sc.MemNodes-1)
		f.CrashAt = sc.Warmup + r.timeIn(0, sc.Measure/2)
		if r.f64() < 0.5 {
			f.RejoinSet = true
			f.RejoinAt = f.CrashAt + r.timeIn(sim.Micros(100), sc.Measure/2)
		}
	}
	if f.Injects() && r.f64() < 0.4 {
		f.NodeSet = true
		f.Node = r.intIn(0, sc.MemNodes-1)
	}
	// Migration and skew draws are appended after every pre-existing
	// draw, so older swarms' scenarios keep their exact shape under the
	// same (seed, idx). The gate draws are unconditional (their results
	// are discarded on single-node scenarios) for the same reason: the
	// draw count must not depend on earlier samples.
	migRoll, skewRoll := r.f64(), r.f64()
	if migRoll < 0.45 && sc.MemNodes > 1 {
		sc.Migrate = migrate.Config{
			Enabled:      true,
			Epoch:        r.timeIn(sim.Micros(30), sim.Micros(250)),
			HotThreshold: r.intIn(2, 8),
			Bandwidth:    0.25 + 2*r.f64(),
			Imbalance:    1.1 + 0.6*r.f64(),
			MaxMoves:     r.intIn(8, 128),
			MinFaults:    r.intIn(4, 32),
		}
	}
	if skewRoll < 0.35 {
		sc.Skew = 1.05 + 0.6*r.f64()
	}
	// Appended likewise: part of the DiLOS share becomes DiLOS-P (probes,
	// quantum expiry, requeue) or Hermit (kernel extras, jitter draws);
	// every other field of an older scenario stays as drawn.
	if baseline := r.f64(); sc.Mode == core.DiLOS {
		switch {
		case baseline < 0.3:
			sc.Mode = core.DiLOSP
		case baseline < 0.6:
			sc.Mode = core.Hermit
		}
	}
	sc.Strict = !(f.CrashSet && !f.RejoinSet && sc.Replicas == 1)
	return sc
}

// ratePick samples a per-WR fault rate on a log-ish scale, 1e-4..1e-2.
func ratePick(r *src) float64 {
	switch r.intIn(0, 2) {
	case 0:
		return 1e-4 * (1 + 9*r.f64())
	case 1:
		return 1e-3 * (1 + 9*r.f64())
	default:
		return 1e-2 * r.f64()
	}
}

// Result is one scenario's outcome.
type Result struct {
	Scenario   Scenario
	Completed  int64
	Violations []error
}

// Failed reports whether the scenario surfaced any violation.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// Run builds the scenario's system, drives it with oracles armed, and
// runs the end-of-run audit. Every violation — whether raised mid-run
// by a hot-path oracle (a panic this function recovers) or found by the
// audit sweep — lands in Result.Violations. The caller must have armed
// the checker (simcheck.SetArmed) before calling: the environment
// latches its checked flag at construction time.
func Run(sc Scenario) Result { return run(sc, nil) }

// run is Run with a seam for the package's tests: started, when not
// nil, sees the assembled system after StartApp and before the load.
func run(sc Scenario, started func(*core.System)) (res Result) {
	res.Scenario = sc
	defer func() {
		if r := recover(); r != nil {
			if v, ok := simcheck.AsViolation(r); ok {
				res.Violations = append(res.Violations, v)
				return
			}
			// A non-violation panic is still a scenario failure — wrap it
			// so the swarm reports it with the same repro line.
			res.Violations = append(res.Violations,
				simcheck.New("panic", "%v", r))
		}
	}()

	localBytes := int64(float64(sc.ArrayBytes)*sc.LocalFrac) &^ (pageSize - 1)
	if localBytes < 16*pageSize {
		localBytes = 16 * pageSize
	}
	cfg := core.Preset(sc.Mode, localBytes)
	cfg.Seed = sc.Seed
	cfg.MemNodes = sc.MemNodes
	cfg.Replicas = sc.Replicas
	cfg.Faults = sc.Faults
	cfg.Migrate = sc.Migrate
	// Small capacity so the memnode/capacity audit would notice even a
	// single-page undercharge relative to a realistic budget.
	cfg.MemNodeBytes = 64 << 20

	sys := core.NewSystem(cfg)
	app := workload.NewArrayApp(sys.Mgr, sys.Mem, sc.ArrayBytes)
	app.WriteFrac = sc.WriteFrac
	if sc.Skew > 0 {
		app.SetSkew(sc.Skew)
	}
	if sc.Warm {
		app.WarmCache()
	}
	sys.StartApp(app)
	if started != nil {
		started(sys)
	}
	r := sys.Run(app, sc.RPS, sc.Warmup, sc.Measure)
	res.Completed = r.Completed

	res.Violations = append(res.Violations, sys.Audit(r, sc.Strict)...)
	if app.Mismatches.Value() > 0 {
		res.Violations = append(res.Violations,
			simcheck.New("core/data-mismatch",
				"response value disagreed with the seeded expectation").
				With("mismatches", app.Mismatches.Value()))
	}
	return res
}

// faultClass names one independently disableable slice of a fault spec,
// for shrinking.
type faultClass struct {
	name    string
	disable func(*faults.Config)
}

var classes = []faultClass{
	{"wr", func(c *faults.Config) { c.WRErrRate = 0 }},
	{"rnr", func(c *faults.Config) { c.RNRRate = 0; c.RNRDelay = 0 }},
	{"link", func(c *faults.Config) { c.LinkEvery = 0; c.LinkFor = 0; c.LinkFactor = 0 }},
	{"mem", func(c *faults.Config) { c.MemEvery = 0; c.MemFor = 0 }},
	{"crash", func(c *faults.Config) {
		c.CrashSet, c.CrashAt, c.CrashNode = false, 0, 0
		c.RejoinSet, c.RejoinAt = false, 0
	}},
}

// Shrink greedily minimizes a failing scenario's fault spec: each class
// is dropped in turn, and stays dropped if the scenario still fails
// without it. Migration and key skew shrink the same way — if the
// failure survives with migration off (or the uniform draw back), the
// report points at the smaller scenario. The result reproduces the
// failure with a (locally) minimal set of disturbances — typically the
// one that matters.
func Shrink(sc Scenario) Scenario {
	for _, cl := range classes {
		trial := sc
		trial.Faults = sc.Faults
		cl.disable(&trial.Faults)
		// Dropping a permanent crash can flip strictness back on.
		trial.Strict = !(trial.Faults.CrashSet && !trial.Faults.RejoinSet && trial.Replicas == 1)
		if Run(trial).Failed() {
			sc = trial
		}
	}
	if sc.Migrate.Enabled {
		trial := sc
		trial.Migrate = migrate.Config{}
		if Run(trial).Failed() {
			sc = trial
		}
	}
	if sc.Skew > 0 {
		trial := sc
		trial.Skew = 0
		if Run(trial).Failed() {
			sc = trial
		}
	}
	return sc
}

// ReproLine returns the one-line command that replays scenario sc of
// the swarm rooted at masterSeed.
func ReproLine(masterSeed int64, sc Scenario) string {
	return fmt.Sprintf("repro: adios-check -seed %d -scenario %d", masterSeed, sc.Index)
}
