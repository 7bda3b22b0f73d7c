package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/stats"
)

// repKind selects what one repetition is for.
type repKind int

const (
	// repChecked arms the simcheck oracles and runs every end-of-run
	// audit; it is not timed and doubles as warm-up.
	repChecked repKind = iota
	// repTimed runs with oracles, tracing, profiling and OnComplete off;
	// the host metrics come from these.
	repTimed
	// repTraced records per-request spans, harness spans and a CPU
	// profile of Run.
	repTraced
)

// span is one request's record, copied out of the scheduler's recycled
// *sched.Request at completion. Times are simulated cycles.
type span struct {
	ID                                    uint64
	Tx                                    int64 // generator send time
	Arrive, Dispatched, Started, Finished int64
	QueueWait, RDMAWait, BusyWait, CPU    int64
	Faults, Preemptions                   int32
}

// phases are the harness spans around each public call, host seconds.
type phases struct {
	newSystem, build, warm, start, run, audit float64
}

func (p phases) setup() float64 { return p.newSystem + p.build + p.warm + p.start }

// rep is the outcome of one repetition.
type rep struct {
	phases       phases
	nsPerReq     float64
	allocsPerReq float64
	numGC        uint32

	// sim holds every simulated-clock number that needs no spans; it
	// must be identical on every rep of one seed.
	sim    map[string]float64
	e2e    *stats.Histogram // end-to-end latency of the window, cycles
	sent   int64
	failed int64 // drops + fault aborts + app mismatches

	warm    sim.Time // measurement-window start, to select spans
	spans   []span
	profile []byte
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// runRep builds a fresh system from a collected heap, runs the workload
// once and reads everything back. Any failed check is an error.
func runRep(sp *spec, seed int64, kind repKind) (r rep, err error) {
	if kind == repChecked {
		// Each environment latches the armed flag when it is built.
		simcheck.SetArmed(true)
		defer simcheck.SetArmed(false)
	}
	// An oracle reports by panicking with a *simcheck.Violation.
	defer func() {
		if p := recover(); p != nil {
			v, ok := simcheck.AsViolation(p)
			if !ok {
				panic(p)
			}
			err = fmt.Errorf("%s: %w", sp.name, v)
		}
	}()

	size := sp.size()
	runtime.GC()
	debug.FreeOSMemory()

	cfg := core.Preset(sp.mode, int64(sp.local*float64(size)))
	cfg.Seed = seed
	if sp.tune != nil {
		sp.tune(&cfg)
	}
	t := time.Now()
	sys := core.NewSystem(cfg)
	r.phases.newSystem = since(t)

	t = time.Now()
	built := sp.build(sys)
	r.phases.build = since(t)

	t = time.Now()
	if w, ok := built.app.(interface{ WarmCache() }); ok {
		w.WarmCache()
	}
	r.phases.warm = since(t)

	t = time.Now()
	sys.StartApp(built.app)
	r.phases.start = since(t)

	warm := sim.Millis(sp.warmMS)
	end := warm + sim.Millis(sp.measureMS)
	r.warm = warm
	// Window-end utilizations, read the way Run reads the inbound link's.
	var txUtil, outUtil float64
	sys.Env.At(end, func() {
		txUtil = sys.Net.TxUtilization()
		outUtil = sys.Fabric.OutUtilization()
	})

	var prof bytes.Buffer
	if kind == repTraced {
		r.spans = make([]span, 0, int(sp.rate*end.Seconds()*1.05)+1024)
		sys.Sched.OnComplete = func(q *sched.Request) {
			r.spans = append(r.spans, span{
				ID: q.Pkt.ID, Tx: int64(q.Pkt.TxTime),
				Arrive: int64(q.Arrive), Dispatched: int64(q.Dispatched),
				Started: int64(q.Started), Finished: int64(q.Finished),
				QueueWait: int64(q.QueueWait), RDMAWait: int64(q.RDMAWait),
				BusyWait: int64(q.BusyWait), CPU: int64(q.CPU),
				Faults: int32(q.Faults), Preemptions: int32(q.Preemptions),
			})
		}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("%s: cpu profile: %w", sp.name, err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t = time.Now()
	res := sys.Run(built.app, sp.rate, warm, end-warm)
	r.phases.run = since(t)
	runtime.ReadMemStats(&m1)
	if kind == repTraced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}

	if res.Completed == 0 {
		return r, fmt.Errorf("%s: no request completed", sp.name)
	}
	r.nsPerReq = r.phases.run * 1e9 / float64(res.Completed)
	r.allocsPerReq = float64(m1.Mallocs-m0.Mallocs) / float64(res.Completed)
	r.numGC = m1.NumGC - m0.NumGC

	mismatches := built.mismatches()
	r.sent = res.Gen.Sent.Value()
	r.failed = res.Drops + res.Aborts + mismatches
	r.e2e = res.Gen.E2E
	r.sim = simMetrics(sys, res, end, txUtil, outUtil)

	if kind != repTimed {
		t = time.Now()
		errs := sys.Audit(res, true)
		r.phases.audit = since(t)
		if len(errs) > 0 {
			return r, fmt.Errorf("%s: audit: %v", sp.name, errs)
		}
		if built.verify != nil {
			if err := built.verify(); err != nil {
				return r, fmt.Errorf("%s: %w", sp.name, err)
			}
		}
	}
	if mismatches != 0 {
		return r, fmt.Errorf("%s: %d responses did not match the seeded data", sp.name, mismatches)
	}
	return r, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simMetrics reads the simulated end-to-end metrics and every exported
// counter the per-layer list names.
func simMetrics(sys *core.System, res core.RunResult, end sim.Time, txUtil, outUtil float64) map[string]float64 {
	s, mgr := sys.Sched, sys.Mgr
	done := float64(res.Completed)
	driven := float64(end)
	var workerMax float64
	for _, w := range s.Workers() {
		workerMax = math.Max(workerMax, float64(w.BusyCycles())/driven)
	}
	flat := 0.0
	if s.FlatTier() {
		flat = 1
	}
	hits, faults := float64(mgr.Hits.Value()), float64(mgr.Faults.Value())
	return map[string]float64{
		"sim_goodput_krps": res.TputK,
		"sim_p50_us":       res.P50us,
		"sim_p999_us":      res.P999us,

		"loadgen.sent":      float64(res.Gen.Sent.Value()),
		"loadgen.delivered": float64(res.Gen.Delivered.Value()),
		"ethernet.rx_drops": float64(sys.Net.Drops.Value()),
		"ethernet.tx_util":  txUtil,

		"sched.completed":               done,
		"sched.drops_queue":             float64(s.DropsQueue.Value()),
		"sched.drops_pool":              float64(s.DropsPool.Value()),
		"sched.fault_aborts":            float64(s.FaultAborts.Value()),
		"sched.steals":                  float64(s.Steals.Value()),
		"sched.flat_tier":               flat,
		"sched.worker_cycles_per_req":   float64(s.CPUCycles()) / done,
		"sched.busywait_cycles_per_req": float64(s.BusyWaitCycles()) / done,
		"sched.dispatcher_util":         float64(s.DispatcherCycles()) / driven,
		"sched.worker_util_max":         workerMax,

		"paging.hits_per_req":       hits / done,
		"paging.faults_per_req":     faults / done,
		"paging.hit_ratio":          ratio(hits, hits+faults),
		"paging.fetch_waits":        float64(mgr.FetchWaits.Value()),
		"paging.evictions":          float64(mgr.Evictions.Value()),
		"paging.dirty_writebacks":   float64(mgr.DirtyWritebacks.Value()),
		"paging.replica_writes":     float64(mgr.ReplicaWrites.Value()),
		"paging.alloc_stalls":       float64(mgr.AllocStalls.Value()),
		"paging.prefetch_issued":    float64(mgr.PrefetchIssued.Value()),
		"paging.prefetch_hit_ratio": ratio(float64(mgr.PrefetchHits.Value()), float64(mgr.PrefetchIssued.Value())),
		"paging.fetch_retries":      float64(mgr.FetchRetries.Value()),

		"rdma.reads":             float64(sys.Fabric.Reads()),
		"rdma.writes":            float64(sys.Fabric.Writes()),
		"rdma.link_util_in":      res.LinkUtil,
		"rdma.link_util_out":     outUtil,
		"rdma.completion_errors": float64(sys.Fabric.CompletionErrors()),

		"memnode.allocated_mb":   float64(sys.Mem.Allocated()) / (1 << 20),
		"sim.max_pending_events": float64(sys.Env.MaxPending()),
	}
}

// histQuantile is the q-quantile of h in cycles, interpolated linearly
// inside the bucket it falls in. Histogram.Quantile answers with the
// bucket's midpoint, which is the same number for every seed whose
// quantile lands in that 1.6 %-wide bucket; the interpolation moves with
// the counts, so a shift inside a bucket still shows.
func histQuantile(h *stats.Histogram, q float64) float64 {
	lo, loFrac := float64(h.Min()), 0.0
	for _, p := range h.CDF() {
		if p.Fraction >= q {
			return lo + (float64(p.Value)-lo)*(q-loFrac)/(p.Fraction-loFrac)
		}
		lo, loFrac = float64(p.Value), p.Fraction
	}
	return float64(h.Max())
}

// spanMetrics aggregates the traced reps' spans over the requests the
// generator sent inside the measurement window — the population the
// end-to-end histogram holds.
func spanMetrics(sp *spec, traced []*rep) map[string]float64 {
	var node, queue, fetch []int64
	var queueSum, busySum, fetchSum, cpuSum, wireSum, preempt float64
	for _, r := range traced {
		for i := range r.spans {
			s := &r.spans[i]
			if s.Tx < int64(r.warm) {
				continue
			}
			node = append(node, s.Finished-s.Arrive)
			queue = append(queue, s.QueueWait)
			fetch = append(fetch, s.RDMAWait)
			queueSum += float64(s.QueueWait)
			busySum += float64(s.BusyWait)
			fetchSum += float64(s.RDMAWait)
			cpuSum += float64(s.CPU)
			wireSum += float64(s.Arrive - s.Tx)
			preempt += float64(s.Preemptions)
		}
	}
	n := float64(len(node))
	p50Node := float64(stats.ExactQuantile(node, 0.50))
	m := map[string]float64{
		"sched.node_latency_cycles_p50":  p50Node,
		"sched.node_latency_cycles_p999": float64(stats.ExactQuantile(node, 0.999)),
		"sched.queue_wait_cycles_mean":   ratio(queueSum, n),
		"sched.queue_wait_cycles_p999":   float64(stats.ExactQuantile(queue, 0.999)),
		"sched.busywait_cycles_mean":     ratio(busySum, n),
		"sched.preemptions_per_req":      ratio(preempt, n),
		"paging.fetch_wait_cycles_mean":  ratio(fetchSum, n),
		"paging.fetch_wait_cycles_p999":  float64(stats.ExactQuantile(fetch, 0.999)),
		"workload.cpu_cycles_mean":       ratio(cpuSum, n),
		// Generator send to RX ring. The way back cannot be had from the
		// span: where the worker waits for its own TX completion, Finished
		// is stamped after the response has left the wire.
		"ethernet.wire_in_cycles_mean": ratio(wireSum, n),
		"sched.ref_err_p50_node_kc":    -1,
	}
	if sp.refP50NodeKc > 0 {
		m["sched.ref_err_p50_node_kc"] = math.Abs(p50Node/1000-sp.refP50NodeKc) / sp.refP50NodeKc
	}
	return m
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// sameSim reports the first simulated number on which two reps differ,
// leaving out the one named except (if any).
func sameSim(a, b *rep, except string) error {
	if a.e2e.Count() != b.e2e.Count() || a.e2e.Sum() != b.e2e.Sum() {
		return fmt.Errorf("latency samples %d (sum %d) != %d (sum %d)",
			a.e2e.Count(), a.e2e.Sum(), b.e2e.Count(), b.e2e.Sum())
	}
	for k, v := range a.sim {
		if w := b.sim[k]; v != w && k != except {
			return fmt.Errorf("%s %v != %v", k, v, w)
		}
	}
	return nil
}
