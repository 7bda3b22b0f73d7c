package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"strconv"

	"repro/internal/sim"
	"repro/internal/stats"
)

// subSeed is the simulation seed of window k. Window 0 runs the seed
// itself; the stride keeps the windows of neighbouring seeds apart.
func subSeed(seed int64, k int) int64 { return seed + int64(k)*1_000_003 }

// options are what one workload's run is parameterized by.
type options struct {
	seed    int64
	seconds float64 // nominal host time of the timed reps
	trace   bool
	spans   string // file the traced reps' spans are dumped to, if set
}

// tracedReps is how many reps the traced phase runs. One rep's CPU
// profile holds about fifty samples at the runtime's 100 Hz, too few to
// tell a layer's share from its neighbour's; eight hold about 400.
const tracedReps = 8

// measure runs the protocol on one workload: a checked rep, a fixed
// number of timed reps over the windows in turn, then (with trace) the
// traced reps, which carry on the rotation, and the layer rigs. A
// window's simulated numbers must be the same bits every time it runs.
func measure(sp *spec, opt options) (*workloadReport, error) {
	n := int(opt.seconds / sp.repSeconds)
	if n <= sp.windows {
		return nil, fmt.Errorf("%s: -seconds %g buys %d timed reps of %g s; %d windows and a repeat need %g s",
			sp.name, opt.seconds, n, sp.repSeconds, sp.windows, float64(sp.windows+1)*sp.repSeconds)
	}
	checked, err := runRep(sp, opt.seed, repChecked)
	if err != nil {
		return nil, err
	}

	timed := make([]*rep, 0, n)
	for i := 0; i < n; i++ {
		k := i % sp.windows
		r, err := runRep(sp, subSeed(opt.seed, k), repTimed)
		if err != nil {
			return nil, err
		}
		switch {
		case i == 0:
			// The wheel keeps its high-water mark on the slow push path
			// only, and the armed kernel takes that path at other moments:
			// the mark is exact between unarmed reps, not against this one.
			err = sameSim(&checked, &r, "sim.max_pending_events")
		case i >= sp.windows:
			err = sameSim(timed[k], &r, "")
		}
		if err != nil {
			return nil, fmt.Errorf("%s: timed rep %d differs from an earlier rep of its seed: %w", sp.name, i, err)
		}
		timed = append(timed, &r)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	w := newWorkloadReport(sp, opt.seed, timed, rss)
	if !opt.trace {
		return w, nil
	}

	traced := make([]*rep, tracedReps)
	for j := range traced {
		k := (n + j) % sp.windows
		r, err := runRep(sp, subSeed(opt.seed, k), repTraced)
		if err != nil {
			return nil, err
		}
		if err := sameSim(timed[k], &r, ""); err != nil {
			return nil, fmt.Errorf("%s: traced rep %d differs from the timed rep of its seed: %w", sp.name, j, err)
		}
		traced[j] = &r
	}
	if opt.spans != "" {
		if err := dumpSpans(opt.spans, traced); err != nil {
			return nil, err
		}
	}
	if err := w.addPerLayer(sp, timed[0], traced, runRigs()); err != nil {
		return nil, err
	}
	return w, nil
}

// newWorkloadReport summarizes the timed reps into the end-to-end
// metrics: the host ones over every rep, the simulated ones pooled over
// the first rep of each window. rss is the process's resident
// high-water mark after the timed reps.
func newWorkloadReport(sp *spec, seed int64, timed []*rep, rss float64) *workloadReport {
	pooled := timed[:min(len(timed), sp.windows)]
	e2e := stats.NewHistogram()
	var goodput float64
	w := &workloadReport{Name: sp.name, Seed: seed, Windows: len(pooled)}
	for _, r := range pooled {
		e2e.Merge(r.e2e)
		goodput += r.sim["sim_goodput_krps"] / float64(len(pooled))
		w.Attempted += r.sent
		w.Failed += r.failed
	}
	w.Samples = e2e.Count()

	w.EndToEnd = map[string]stat{
		"setup_s":             summarize(over(timed, func(r *rep) float64 { return r.phases.setup() }), true),
		"host_ns_per_req":     summarize(over(timed, func(r *rep) float64 { return r.nsPerReq }), true),
		"host_allocs_per_req": summarize(over(timed, func(r *rep) float64 { return r.allocsPerReq }), false),
		// One process, one high-water mark, read before the traced reps'
		// spans and profiles can raise it.
		"host_peak_rss_mb": exactly(rss, 1),
		"sim_goodput_krps": exactly(goodput, len(pooled)),
		// Not through sim.Time, which would round to whole cycles.
		"sim_p50_us":  exactly(histQuantile(e2e, 0.50)/sim.CyclesPerMicro, len(pooled)),
		"sim_p999_us": exactly(histQuantile(e2e, 0.999)/sim.CyclesPerMicro, len(pooled)),
	}
	return w
}

// over collects one number from each rep.
func over(reps []*rep, get func(*rep) float64) []float64 {
	vals := make([]float64, len(reps))
	for i, r := range reps {
		vals[i] = get(r)
	}
	return vals
}

// median is the middle of one number over the reps.
func median(reps []*rep, get func(*rep) float64) float64 {
	_, q2, _ := quartiles(over(reps, get))
	return q2
}

// addPerLayer fills in the per-layer metrics: the exact counters of a
// timed rep, the traced reps' spans, harness spans and CPU profiles, and
// the rigs.
func (w *workloadReport) addPerLayer(sp *spec, timed *rep, traced []*rep, rigs map[string]float64) error {
	w.PerLayer = make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		if v, ok := timed.sim[d.name]; ok {
			w.PerLayer[d.name] = v
		}
	}
	for k, v := range spanMetrics(sp, traced) {
		w.PerLayer[k] = v
	}
	w.PerLayer["core.new_system_s"] = median(traced, func(r *rep) float64 { return r.phases.newSystem })
	w.PerLayer["workload.build_s"] = median(traced, func(r *rep) float64 { return r.phases.build })
	w.PerLayer["workload.warm_s"] = median(traced, func(r *rep) float64 { return r.phases.warm })
	w.PerLayer["core.start_s"] = median(traced, func(r *rep) float64 { return r.phases.start })
	w.PerLayer["core.run_s"] = median(traced, func(r *rep) float64 { return r.phases.run })
	w.PerLayer["core.audit_s"] = median(traced, func(r *rep) float64 { return r.phases.audit })

	var self selfTime
	var numGC float64
	for _, r := range traced {
		prof, err := parseProfile(r.profile)
		if err != nil {
			return err
		}
		self.add(prof)
		numGC += float64(r.numGC) / float64(len(traced))
	}
	w.TracedReps, w.ProfileSamples = len(traced), self.samples
	for _, layer := range profileLayers {
		w.PerLayer[layer+".host_self_frac"] = self.share(layer)
	}
	w.PerLayer["runtime.gc_cpu_frac"] = self.gcShare()
	w.PerLayer["runtime.num_gc"] = numGC
	w.PerLayer["trace.overhead_frac"] = median(traced, func(r *rep) float64 { return r.nsPerReq })/w.EndToEnd["host_ns_per_req"].Median - 1

	for k, v := range rigs {
		w.PerLayer[k] = v
	}
	for _, d := range perLayer {
		if _, ok := w.PerLayer[d.name]; !ok {
			return fmt.Errorf("per-layer metric %s has no source", d.name)
		}
	}
	return nil
}

// dumpSpans writes one CSV row per completed request of the traced reps.
func dumpSpans(path string, traced []*rep) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(f)
	// csv.Writer keeps the first write error for Error below.
	_ = cw.Write([]string{"rep", "id", "tx", "arrive", "dispatched", "started", "finished",
		"queue_wait", "rdma_wait", "busy_wait", "cpu", "faults", "preemptions"})
	row := make([]string, 13)
	for j, r := range traced {
		row[0] = strconv.Itoa(j)
		for i := range r.spans {
			s := &r.spans[i]
			row[1] = strconv.FormatUint(s.ID, 10)
			for c, v := range [...]int64{s.Tx, s.Arrive, s.Dispatched, s.Started, s.Finished,
				s.QueueWait, s.RDMAWait, s.BusyWait, s.CPU, int64(s.Faults), int64(s.Preemptions)} {
				row[c+2] = strconv.FormatInt(v, 10)
			}
			_ = cw.Write(row)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
