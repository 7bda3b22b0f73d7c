package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// stat is one end-to-end metric of one workload: the value the metric
// reports and the distribution over the timed reps it was taken from.
type stat struct {
	// Value is the minimum over the reps for the two host-time metrics,
	// the median for host_allocs_per_req, the pooled number for a
	// simulated metric.
	Value  float64 `json:"value"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quartiles returns what Python's statistics.quantiles(values, n=4)
// returns (the exclusive method), so spreads computed here and by a
// driver agree. One value is its own quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summarize reports the median of a host metric's per-rep values — or
// their minimum: another tenant of the host only ever adds time, for
// seconds on end, so over reps of one fixed piece of work the fastest is
// the steadiest estimate of what the work costs undisturbed.
func summarize(values []float64, useMin bool) stat {
	q1, q2, q3 := quartiles(values)
	s := stat{Value: q2, Min: values[0], Q1: q1, Median: q2, Q3: q3, N: len(values)}
	for _, v := range values {
		s.Min = math.Min(s.Min, v)
	}
	if useMin {
		s.Value = s.Min
	}
	return s
}

// exactly is the stat of a number that has no spread: one simulated
// metric pooled over n windows, or the process's one high-water mark.
func exactly(v float64, n int) stat {
	return stat{Value: v, Min: v, Q1: v, Median: v, Q3: v, N: n}
}

// workloadReport is everything one workload's process measured.
type workloadReport struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`

	// Windows is how many simulations the simulated end-to-end metrics
	// are pooled over; Samples is the number of end-to-end latencies in
	// them, of which Samples/1000 lie beyond sim_p999_us.
	Windows   int   `json:"windows"`
	Samples   int64 `json:"samples"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	EndToEnd map[string]stat `json:"end_to_end"`
	// PerLayer is present when the workload ran with -trace 1, with the
	// number of traced reps and of CPU samples the *.host_self_frac
	// shares are taken over.
	PerLayer       map[string]float64 `json:"per_layer,omitempty"`
	TracedReps     int                `json:"traced_reps,omitempty"`
	ProfileSamples int64              `json:"profile_samples,omitempty"`
}

// report is the file `go run ./benchmark` writes and -compare reads.
type report struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	CPUModel   string           `json:"cpu_model"`
	Seed       int64            `json:"seed"`
	Workloads  []workloadReport `json:"workloads"`
}

func newReport(seed int64) report {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return report{
		Commit: commit, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: measureProcs,
		CPUModel: model, Seed: seed,
	}
}

func (r report) header() string {
	return fmt.Sprintf("commit %s  %s  nproc %d  GOMAXPROCS %d  cpu %q  seed %d",
		r.Commit, r.GoVersion, r.NumCPU, r.GOMAXPROCS, r.CPUModel, r.Seed)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// print writes every metric by name with its unit.
func (w *workloadReport) print(out io.Writer, sp *spec) {
	fmt.Fprintf(out, "## %s  seed %d  (%s, %.0f KRPS, %d windows of %g+%g ms simulated)\n",
		w.Name, w.Seed, sp.mode, sp.rate/1000, w.Windows, sp.warmMS, sp.measureMS)
	for _, d := range endToEnd {
		s := w.EndToEnd[d.name]
		fmt.Fprintf(out, "%-32s %14.6g %-7s", d.name, s.Value, d.unit)
		switch {
		case d.name == "sim_p999_us":
			fmt.Fprintf(out, " %d samples in %d windows, %d beyond P99.9", w.Samples, s.N, w.Samples/1000)
		case d.sim:
			fmt.Fprintf(out, " pooled over %d windows", s.N)
		case s.N > 1:
			fmt.Fprintf(out, " min %.6g q1 %.6g median %.6g q3 %.6g n %d", s.Min, s.Q1, s.Median, s.Q3, s.N)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%-32s %14d of %d sent\n", "failed", w.Failed, w.Attempted)
	if w.PerLayer == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", d.name, w.PerLayer[d.name], d.unit)
	}
	fmt.Fprintf(out, "profile: the host_self_frac shares are of %d CPU samples over %d traced reps\n", w.ProfileSamples, w.TracedReps)
	if sp.refP50NodeKc > 0 {
		fmt.Fprintf(out, "fidelity: median node residence %.1f Kcycles against the paper's %.1f (EXPERIMENTS.md, Fig 2(c)), relative error %.3f; every other simulated number is unvalidated at this point\n",
			w.PerLayer["sched.node_latency_cycles_p50"]/1000, sp.refP50NodeKc, w.PerLayer["sched.ref_err_p50_node_kc"])
	} else {
		fmt.Fprintln(out, "fidelity: EXPERIMENTS.md records no paper anchor at this operating point; every simulated number is unvalidated at this point")
	}
}

// resultLine is the one-line JSON object a driver reads from the last
// line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func (w *workloadReport) result(traced bool) resultLine {
	res := resultLine{Correct: true, Attempted: w.Attempted, Failed: w.Failed,
		Metrics: make(map[string]metricValue)}
	if traced {
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{w.PerLayer[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{w.EndToEnd[d.name].Value, d.unit}
		}
	}
	return res
}
