package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestBenchmarkJSONMatchesCode holds the workload and metric lists of
// BENCHMARK.json and of the code to one set, with the same units,
// directions and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bm := loadBenchmarkJSON(t)

	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(bm.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(bm.Workloads), len(specs))
	}
	for i, w := range bm.Workloads {
		unique(w.Name)
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in code", i, w.Name, specs[i].name)
		}
		if w.Why != specs[i].why {
			t.Errorf("workload %q: the two whys differ", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the code %d", len(got), kind, len(want))
		}
		for i, g := range got {
			unique(g.Name)
			d := want[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s/%s/%s, the code %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q does not match %v", g.Name, g.Unit, unitRE)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound must be the code's %v and within (0, 0.25]", g.Name, d.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric carries no bound", g.Name)
			}
		}
	}
	check("end-to-end", bm.EndToEnd, endToEnd, true)
	check("per-layer", bm.PerLayer, perLayer, false)

	if len(bm.Paths) != 1 || bm.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bm.Paths)
	}
	if bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", bm.RunSeconds)
	}
	if len(profileLayers) != 11 {
		t.Errorf("profileLayers has %d layers", len(profileLayers))
	}
	for _, l := range profileLayers {
		if !seen[l+".host_self_frac"] {
			t.Errorf("profile layer %q has no host_self_frac metric", l)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at a 2 + 5 ms window
// and checks that every metric BENCHMARK.json names comes out finite,
// that two reps of one seed agree on every simulated number, and that
// another seed moves them.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bm := loadBenchmarkJSON(t)
	rigs := runRigs()
	for i := range specs {
		sp := specs[i]
		sp.warmMS, sp.measureMS = 2, 5
		t.Run(sp.name, func(t *testing.T) {
			timed, err := runRep(&sp, 1, repTimed)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRep(&sp, 1, repTraced)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameSim(&timed, &traced, ""); err != nil {
				t.Errorf("two reps of seed 1 differ: %v", err)
			}
			if len(traced.spans) == 0 {
				t.Error("the traced rep recorded no spans")
			}

			w := newWorkloadReport(&sp, 1, []*rep{&timed}, 1)
			if err := w.addPerLayer(&sp, &timed, []*rep{&traced}, rigs); err != nil {
				t.Fatal(err)
			}
			if w.Failed != 0 {
				t.Errorf("%d of %d requests failed", w.Failed, w.Attempted)
			}
			finite := func(name string, v float64) {
				t.Helper()
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", name, v)
				}
			}
			for _, m := range bm.EndToEnd {
				s, ok := w.EndToEnd[m.Name]
				if !ok {
					t.Errorf("end-to-end metric %s is not emitted", m.Name)
				}
				finite(m.Name, s.Value)
				if s.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.Name)
				}
			}
			var selfSum float64
			for _, m := range bm.PerLayer {
				v, ok := w.PerLayer[m.Name]
				if !ok {
					t.Errorf("per-layer metric %s is not emitted", m.Name)
				}
				finite(m.Name, v)
				if strings.HasSuffix(m.Name, ".host_self_frac") {
					selfSum += v
				}
			}
			if math.Abs(selfSum-1) > 0.01 {
				t.Errorf("host_self_frac shares sum to %v, want 1", selfSum)
			}
			// A request spends time on the wire before the node sees it.
			if v := w.PerLayer["ethernet.wire_in_cycles_mean"]; v <= 0 {
				t.Errorf("ethernet.wire_in_cycles_mean = %v, want > 0", v)
			}
			if got, want := len(w.result(false).Metrics), len(bm.EndToEnd); got != want {
				t.Errorf("result line has %d metrics, want %d", got, want)
			}
			if got, want := len(w.result(true).Metrics), len(bm.PerLayer); got != want {
				t.Errorf("traced result line has %d metrics, want %d", got, want)
			}

			other, err := runRep(&sp, 2, repTimed)
			if err != nil {
				t.Fatal(err)
			}
			if sameSim(&timed, &other, "") == nil {
				t.Error("seed 2 gives the same simulated numbers as seed 1")
			}
		})
	}
}

// TestSpecsFitTheRun checks the workload table against the run length
// BENCHMARK.json fixes: every window runs and at least one runs twice,
// and the windows a run pools leave ten samples beyond the P99.9 with
// room to spare (an open loop delivers rate × window samples).
func TestSpecsFitTheRun(t *testing.T) {
	bm := loadBenchmarkJSON(t)
	for _, sp := range specs {
		if n := int(float64(bm.RunSeconds) / sp.repSeconds); n <= sp.windows {
			t.Errorf("%s: %d s buy %d timed reps over %d windows", sp.name, bm.RunSeconds, n, sp.windows)
		}
		if sp.windows < tracedReps {
			t.Errorf("%s: %d windows, fewer than the %d traced reps", sp.name, sp.windows, tracedReps)
		}
		if samples := sp.rate * sp.measureMS / 1000 * float64(sp.windows); samples < 2*10_000 {
			t.Errorf("%s: about %.0f latency samples in %d windows, P99.9 needs 10000", sp.name, samples, sp.windows)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{5}); q1 != 5 || q2 != 5 || q3 != 5 {
		t.Errorf("one value: %v %v %v", q1, q2, q3)
	}
}

func TestFuncPackageAndLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Env).loop":                                  "sim",
		"repro/internal/sim.(*Queue[repro/internal/sched.workItem]).Push": "sim",
		"repro/internal/sched.(*Worker).loop.func1":                       "sched",
		"repro/internal/tpcc.(*DB).NewOrder":                              "workload",
		"repro/internal/btree.(*Tree).Get":                                "workload",
		"repro/internal/core.(*System).Run":                               "other",
		"runtime.mallocgc":                                                "runtime",
		"runtime/internal/atomic.Xadd":                                    "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                          "runtime",
		"math/rand.(*Rand).Int63n":                                        "other",
		"main.runRep.func2":                                               "other",
	} {
		if got := layerOf(funcPackage(fn)); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestJudge(t *testing.T) {
	d := &metricDef{name: "host_ns_per_req", better: "lower", bound: 0.10}
	tight := func(m float64) stat {
		return stat{Value: m, Min: m * 0.98, Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 5}
	}
	wide := func(m float64) stat { return stat{Value: m, Min: m * 0.8, Median: m, Q1: m * 0.9, Q3: m * 1.1, N: 5} }
	// episode is a run reported by its minimum, as the host-time metrics are.
	episode := func(min, q1, q3 float64) stat {
		return stat{Value: min, Min: min, Q1: q1, Median: (q1 + q3) / 2, Q3: q3, N: 16}
	}
	for _, c := range []struct {
		base, cur stat
		exact     bool
		want      string
	}{
		{tight(100), tight(105), true, verdictOK},
		{tight(100), tight(111), true, verdictUnresolved},
		{tight(100), tight(115), true, verdictRegressed},
		{tight(100), tight(50), true, verdictOK},
		{wide(100), tight(105), true, verdictUnresolved},
		{wide(100), tight(120), true, verdictUnresolved},
		{wide(100), tight(130), true, verdictRegressed},
	} {
		if got := judge(d, c.base, c.cur, c.exact); got != c.want {
			t.Errorf("judge(%v, %v) = %s, want %s", c.base.Value, c.cur.Value, got, c.want)
		}
	}
	// Two runs of one commit: every rep of the second fell inside a slow
	// episode of the host, so its minimum reads 31 % worse, yet its best
	// rep is within the bound of the first run's upper quartile.
	h := &metricDef{name: "host_ns_per_req", better: "lower", bound: 0.25}
	if got := judge(h, episode(5970, 6020, 7100), episode(7800, 8100, 9200), true); got != verdictUnresolved {
		t.Errorf("a run inside a slow episode: %s, want %s", got, verdictUnresolved)
	}
	if got := judge(h, episode(5970, 6020, 7100), episode(9300, 9400, 9900), true); got != verdictRegressed {
		t.Errorf("reps apart by more than the bound: %s, want %s", got, verdictRegressed)
	}
	s := &metricDef{name: "sim_p50_us", better: "lower", bound: 0.02, sim: true}
	if got := judge(s, exactly(6, 8), exactly(6.0001, 8), true); got != verdictDiffers {
		t.Errorf("simulated metric moved at one seed: %s, want %s", got, verdictDiffers)
	}
	if got := judge(s, exactly(6, 8), exactly(6.0001, 8), false); got != verdictOK {
		t.Errorf("simulated metric across seeds: %s, want %s", got, verdictOK)
	}
	f := &metricDef{name: "setup_s", better: "lower", bound: 0.25, floor: 0.05}
	if got := judge(f, tight(0.06), tight(0.10), true); got != verdictOK {
		t.Errorf("worsening inside the floor: %s, want %s", got, verdictOK)
	}
}
