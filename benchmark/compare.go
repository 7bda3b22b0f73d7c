package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // worse than the baseline by more than the bound, the reps apart
	verdictUnresolved = "unresolved" // the reps overlap, or their spread is wider than the bound
	verdictDiffers    = "differs"    // a simulated number changed at the same seed
)

// worsening is how much worse cur is than base, in the metric's unit
// (negative = better).
func worsening(d *metricDef, base, cur float64) float64 {
	if d.better == "higher" {
		return base - cur
	}
	return cur - base
}

// spread is the interquartile range of the reps as a share of their
// median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// judge applies an end-to-end metric's bound. exact demands equality:
// the two reports ran one seed, where a simulated metric is a pure
// function of the inputs.
//
// A metric taken over reps is called regressed only when the two sets of
// reps separate: the new run's best rep is still worse than the
// baseline's upper quartile by more than the bound. A whole 10 s run can
// fall inside one of a shared host's slow episodes, which moves every rep
// of it, the minimum too; that reads as worse values over overlapping
// reps, and is reported as unresolved. (A number without spread is its
// own minimum and quartiles, so for it this is the plain test.)
func judge(d *metricDef, base, cur stat, exact bool) string {
	if exact && d.sim {
		if base.Value != cur.Value {
			return verdictDiffers
		}
		return verdictOK
	}
	allowed := math.Max(d.bound*math.Abs(base.Value), d.floor)
	worse := worsening(d, base.Value, cur.Value) > allowed
	switch {
	case worse && worsening(d, base.Q3, cur.Min) > allowed:
		return verdictRegressed
	case worse, math.Max(base.spread(), cur.spread()) > d.bound:
		return verdictUnresolved
	}
	return verdictOK
}

// compareReports prints one row per (workload, end-to-end metric) of
// two reports and checks the simulated per-layer numbers for equality.
// It reports whether anything regressed or differed.
func compareReports(out io.Writer, basePath, curPath string) (bad bool, err error) {
	var base, cur report
	if err := readJSON(basePath, &base); err != nil {
		return false, err
	}
	if err := readJSON(curPath, &cur); err != nil {
		return false, err
	}
	fmt.Fprintf(out, "base %s\n     %s\nnew  %s\n     %s\n", basePath, base.header(), curPath, cur.header())
	fmt.Fprintf(out, "\n%-19s %-20s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "base", "[q1 .. q3] n", "new", "[q1 .. q3] n", "change", "verdict")

	curByName := make(map[string]*workloadReport, len(cur.Workloads))
	for i := range cur.Workloads {
		curByName[cur.Workloads[i].Name] = &cur.Workloads[i]
	}
	counts := map[string]int{}
	for i := range base.Workloads {
		b := &base.Workloads[i]
		c := curByName[b.Name]
		if c == nil {
			fmt.Fprintf(out, "%-19s missing from %s\n", b.Name, curPath)
			bad = true
			continue
		}
		if bn, cn := b.EndToEnd["host_ns_per_req"].N, c.EndToEnd["host_ns_per_req"].N; bn != cn {
			return false, fmt.Errorf("%s: %d timed reps against %d: the reports were made with different -seconds", b.Name, bn, cn)
		}
		exact := b.Seed == c.Seed
		for j := range endToEnd {
			d := &endToEnd[j]
			bs, cs := b.EndToEnd[d.name], c.EndToEnd[d.name]
			v := judge(d, bs, cs, exact)
			counts[v]++
			change := 0.0
			if bs.Value != 0 {
				change = (cs.Value - bs.Value) / math.Abs(bs.Value)
			}
			fmt.Fprintf(out, "%-19s %-20s %12.6g %25s %12.6g %25s %+7.2f%%  %s\n", b.Name, d.name,
				bs.Value, fmt.Sprintf("[%.5g .. %.5g] %d", bs.Q1, bs.Q3, bs.N),
				cs.Value, fmt.Sprintf("[%.5g .. %.5g] %d", cs.Q1, cs.Q3, cs.N),
				change*100, v)
		}
		// Failed requests have an absolute bound of zero.
		v := verdictOK
		if c.Failed > b.Failed {
			v = verdictRegressed
		}
		counts[v]++
		fmt.Fprintf(out, "%-19s %-20s %12d %25s %12d %25s %8s  %s\n", b.Name, "failed",
			b.Failed, fmt.Sprintf("of %d", b.Attempted), c.Failed, fmt.Sprintf("of %d", c.Attempted), "", v)

		if !exact || b.PerLayer == nil || c.PerLayer == nil {
			continue
		}
		same := 0
		for _, d := range perLayer {
			if !d.sim {
				continue
			}
			if bv, cv := b.PerLayer[d.name], c.PerLayer[d.name]; bv != cv {
				counts[verdictDiffers]++
				fmt.Fprintf(out, "%-19s %-32s %.9g -> %.9g  %s\n", b.Name, d.name, bv, cv, verdictDiffers)
			} else {
				same++
			}
		}
		if b.Samples != c.Samples {
			counts[verdictDiffers]++
			fmt.Fprintf(out, "%-19s %-32s %d -> %d  %s\n", b.Name, "latency samples", b.Samples, c.Samples, verdictDiffers)
		}
		fmt.Fprintf(out, "%-19s %d simulated per-layer numbers identical\n", b.Name, same)
	}
	fmt.Fprintf(out, "\n%d ok, %d regressed, %d unresolved, %d differ\n",
		counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved], counts[verdictDiffers])
	return bad || counts[verdictRegressed] > 0 || counts[verdictDiffers] > 0, nil
}
