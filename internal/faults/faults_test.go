package faults

import (
	"reflect"
	"testing"

	"repro/internal/memnode"
	"repro/internal/rdma"
	"repro/internal/sim"
)

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "wr=0.01,rnr=0.005:20us,link=1.5ms:50us:4,mem=800us:100us,seed=7"
	cfg, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		WRErrRate: 0.01,
		RNRRate:   0.005, RNRDelay: sim.Micros(20),
		LinkEvery: sim.Time(1.5 * float64(sim.Millis(1))), LinkFor: sim.Micros(50), LinkFactor: 4,
		MemEvery: sim.Micros(800), MemFor: sim.Micros(100),
		Seed: 7,
	}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() {
		t.Fatal("plan not enabled")
	}
	// The canonical form renders 1.5ms in exact whole microseconds so
	// that every String() output re-parses to the identical plan.
	canonical := "wr=0.01,rnr=0.005:20us,link=1500us:50us:4,mem=800us:100us,seed=7"
	if cfg.String() != canonical {
		t.Fatalf("String() = %q, want %q", cfg.String(), canonical)
	}
	// The canonical form must parse back to the same plan.
	again, err := ParseSpec(cfg.String())
	if err != nil || again != cfg {
		t.Fatalf("re-parse: %+v, %v", again, err)
	}
}

func TestParseSpecEmptyAndErrors(t *testing.T) {
	cfg, err := ParseSpec("")
	if err != nil || cfg.Enabled() {
		t.Fatalf("empty spec: %+v, %v", cfg, err)
	}
	if cfg.String() != "none" {
		t.Fatalf("disabled String() = %q", cfg.String())
	}
	for _, bad := range []string{
		"nonsense",          // no key=value
		"zap=1",             // unknown class
		"wr=2",              // rate out of range
		"wr=-0.1",           // negative rate
		"rnr=0.5",           // missing duration
		"rnr=0.5:xyz",       // bad duration
		"link=1ms:1us",      // missing factor
		"link=1ms:1us:0.5",  // factor must exceed 1
		"mem=1ms",           // missing duration
		"seed=abc",          // bad seed
		"wr=0.1,link=1ms:x", // error in later item
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestBareCycleDurations(t *testing.T) {
	cfg, err := ParseSpec("rnr=0.1:4000")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RNRDelay != 4000 {
		t.Fatalf("bare-cycle duration = %d", cfg.RNRDelay)
	}
}

func TestEnabled(t *testing.T) {
	cases := []struct {
		cfg  Config
		want bool
	}{
		{Config{}, false},
		{Config{Seed: 9}, false}, // a seed alone injects nothing
		{Config{WRErrRate: 0.01}, true},
		{Config{RNRRate: 0.01, RNRDelay: 10}, true},
		{Config{LinkEvery: 100, LinkFor: 10, LinkFactor: 2}, true},
		{Config{LinkEvery: 100, LinkFor: 10, LinkFactor: 1}, false}, // no-op factor
		{Config{MemEvery: 100, MemFor: 10}, true},
	}
	for i, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Errorf("case %d: Enabled() = %v", i, got)
		}
	}
}

// collect samples every injector decision over a fixed query sequence.
func collect(inj *Injector) (outcomes []bool, delays []sim.Time, factors []float64, serves []sim.Time) {
	for i := 0; i < 500; i++ {
		fail, d := inj.WROutcome(rdma.OpRead, 4096)
		outcomes = append(outcomes, fail)
		delays = append(delays, d)
		at := sim.Time(i) * sim.Micros(50)
		factors = append(factors, inj.LinkFactor(at))
		serves = append(serves, inj.ServeDelay(at))
	}
	return
}

func TestInjectorDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{
		WRErrRate: 0.05, RNRRate: 0.05, RNRDelay: sim.Micros(5),
		LinkEvery: sim.Millis(1), LinkFor: sim.Micros(200), LinkFactor: 3,
		MemEvery: sim.Millis(1), MemFor: sim.Micros(100),
	}
	o1, d1, f1, s1 := collect(NewForNode(cfg, memnode.New(1<<20), 42, 0))
	o2, d2, f2, s2 := collect(NewForNode(cfg, memnode.New(1<<20), 42, 0))
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(d1, d2) ||
		!reflect.DeepEqual(f1, f2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seeds produced different fault schedules")
	}

	// A different run seed or plan seed must shift the schedule.
	o3, _, f3, _ := collect(NewForNode(cfg, memnode.New(1<<20), 43, 0))
	if reflect.DeepEqual(o1, o3) && reflect.DeepEqual(f1, f3) {
		t.Fatal("run seed does not perturb the schedule")
	}
	cfg2 := cfg
	cfg2.Seed = 9
	o4, _, f4, _ := collect(NewForNode(cfg2, memnode.New(1<<20), 42, 0))
	if reflect.DeepEqual(o1, o4) && reflect.DeepEqual(f1, f4) {
		t.Fatal("plan seed does not perturb the schedule")
	}
}

func TestWindowScheduleIndependentOfQueryPattern(t *testing.T) {
	cfg := Config{LinkEvery: sim.Millis(1), LinkFor: sim.Micros(200), LinkFactor: 3}
	// Query densely vs sparsely; the factor at the common query times
	// must agree because the window schedule depends only on the seed.
	dense := NewForNode(cfg, memnode.New(1<<20), 5, 0)
	var denseAt []float64
	for i := 0; i < 1000; i++ {
		f := dense.LinkFactor(sim.Time(i) * sim.Micros(10))
		if i%10 == 0 {
			denseAt = append(denseAt, f)
		}
	}
	sparse := NewForNode(cfg, memnode.New(1<<20), 5, 0)
	var sparseAt []float64
	for i := 0; i < 100; i++ {
		sparseAt = append(sparseAt, sparse.LinkFactor(sim.Time(i)*sim.Micros(100)))
	}
	if !reflect.DeepEqual(denseAt, sparseAt) {
		t.Fatal("window schedule depends on query pattern")
	}
}

func TestServeDelayMirrorsIntoMemnode(t *testing.T) {
	cfg := Config{MemEvery: sim.Micros(200), MemFor: sim.Micros(100)}
	node := memnode.New(1 << 20)
	inj := NewForNode(cfg, node, 3, 0)
	sawStall := false
	for i := 0; i < 200; i++ {
		at := sim.Time(i) * sim.Micros(20)
		d := inj.ServeDelay(at)
		if d < 0 {
			t.Fatalf("negative serve delay %d at %v", d, at)
		}
		if d > 0 {
			sawStall = true
			// The delay must agree with the node's own stall bookkeeping.
			if want := sim.Time(node.AvailableAt(int64(at))) - at; d != want {
				t.Fatalf("delay %d != node's %d", d, want)
			}
		}
	}
	if !sawStall {
		t.Fatal("no stall window hit in 4ms of queries")
	}
	if node.StalledTime() == 0 {
		t.Fatal("windows not mirrored into the memory node")
	}
}

// TestParseSpecCrashRejoinRoundTrip pins the crash grammar: exact field
// values, the canonical rendering (node always explicit), and the
// String() -> ParseSpec fixed point.
func TestParseSpecCrashRejoinRoundTrip(t *testing.T) {
	cfg, err := ParseSpec("crash=5ms:node=2,rejoin=8ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{CrashAt: sim.Millis(5), CrashNode: 2, CrashSet: true,
		RejoinAt: sim.Millis(8), RejoinSet: true}
	if cfg != want {
		t.Fatalf("parsed %+v, want %+v", cfg, want)
	}
	if !cfg.Enabled() {
		t.Fatal("crash plan not enabled")
	}
	if cfg.Injects() {
		t.Fatal("a pure crash plan must not install probabilistic interceptors")
	}
	canonical := "crash=5ms:node=2,rejoin=8ms"
	if cfg.String() != canonical {
		t.Fatalf("String() = %q, want %q", cfg.String(), canonical)
	}
	again, err := ParseSpec(cfg.String())
	if err != nil || again != cfg {
		t.Fatalf("re-parse: %+v, %v", again, err)
	}

	// The node defaults to 0 and is rendered explicitly.
	cfg, err = ParseSpec("crash=250us")
	if err != nil || cfg.CrashNode != 0 || !cfg.CrashSet || cfg.RejoinSet {
		t.Fatalf("bare crash: %+v, %v", cfg, err)
	}
	if cfg.String() != "crash=250us:node=0" {
		t.Fatalf("bare crash String() = %q", cfg.String())
	}
}

func TestParseSpecCrashErrors(t *testing.T) {
	for _, bad := range []string{
		"crash=",                 // missing time
		"crash=xyz",              // bad time
		"crash=5ms:node=x",       // malformed node index
		"crash=5ms:node=-1",      // negative node index
		"crash=5ms:zone=1",       // wrong parameter name
		"crash=5ms:node=1:extra", // too many parameters
		"crash=1e16",             // out-of-range time
		"rejoin=1ms",             // rejoin without crash
		"crash=2ms,rejoin=1ms",   // rejoin before crash
		"crash=2ms,rejoin=2ms",   // rejoin not after crash
		"rejoin=1ms:2ms",         // too many rejoin values
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestCrashEnabledButNotInjecting pins the wiring split: CrashSet flips
// Enabled (the plan is not inert) without flipping Injects (no
// per-operation interceptors), and Targets still keys off Injects.
func TestCrashEnabledButNotInjecting(t *testing.T) {
	cfg := Config{CrashAt: sim.Millis(1), CrashNode: 1, CrashSet: true}
	if !cfg.Enabled() || cfg.Injects() {
		t.Fatalf("crash-only plan: Enabled=%v Injects=%v", cfg.Enabled(), cfg.Injects())
	}
	if cfg.Targets(1) {
		t.Fatal("crash-only plan must not target interceptors at any node")
	}
	cfg.WRErrRate = 0.01
	if !cfg.Injects() || !cfg.Targets(1) {
		t.Fatal("adding wr= must restore interceptor wiring")
	}
}
