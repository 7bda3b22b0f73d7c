package rdma

import (
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/stats"
)

// HealthConfig tunes failure detection.
type HealthConfig struct {
	// Every is the heartbeat probe period. Each period the tracker
	// probes every node once from a tier-1 task on the timing wheel.
	Every sim.Time
	// Threshold is how many consecutive probe failures (or data-path
	// ErrNodeDead timeouts, whichever accumulates first) mark a node
	// dead. One timeout is not a verdict; Threshold trades detection
	// latency against false positives on a lossy fabric.
	Threshold int
}

// DefaultHealthConfig returns the calibrated detector: 25 µs probes,
// three strikes. Worst-case detection lag from probes alone is
// Threshold×Every + DeadTimeout ≈ 90 µs; data-path timeouts usually
// beat the probes under load.
func DefaultHealthConfig() HealthConfig {
	return HealthConfig{Every: sim.Micros(25), Threshold: 3}
}

// Health is the per-node failure detector over a Fabric. Liveness is
// driven by two signals sharing one strike counter per node: a
// heartbeat sim.Task that probes every node each period, and
// ReportTimeout calls from the data path whenever a work request
// completes ErrNodeDead. When a node's consecutive strikes reach the
// threshold it is marked dead and OnDown fires (once); a later
// successful probe — possible only inside a rejoin window — marks it
// live again.
//
// The probe itself is modeled, not a posted WR: a real detector would
// post a tiny READ and count its timeout, which on this fabric is a
// deterministic function of the NIC's crash window — so the tracker
// consults the window directly at the probe's nominal arrival time and
// books the strike when that probe's timeout would have expired. The
// detection schedule is therefore a pure function of configuration,
// never of load, which keeps crash runs byte-reproducible.
type Health struct {
	env    *sim.Env
	fabric Fabric
	cfg    HealthConfig

	live   []bool
	consec []int      // consecutive strikes per node
	downAt []sim.Time // detection time per dead node

	task *sim.Task

	// OnDown, if set, is invoked in event context when a node is first
	// marked dead.
	OnDown func(node int)

	// Probes counts per-node heartbeat probes; Detected counts
	// dead-node verdicts; Rejoins counts recoveries.
	Probes   stats.Counter
	Detected stats.Counter
	Rejoins  stats.Counter
}

// NewHealth builds a detector over fabric.
func NewHealth(env *sim.Env, fabric Fabric, cfg HealthConfig) *Health {
	h := &Health{
		env:    env,
		fabric: fabric,
		cfg:    cfg,
		live:   make([]bool, len(fabric)),
		consec: make([]int, len(fabric)),
		downAt: make([]sim.Time, len(fabric)),
	}
	for i := range h.live {
		h.live[i] = true
	}
	h.task = sim.NewTask(env, "health", h.tick)
	return h
}

// Start arms the heartbeat. Call once, before the run.
func (h *Health) Start() { h.task.FireAfter(h.cfg.Every) }

// Live reports whether node i is currently believed alive. Out-of-range
// indices (a lone NIC outside any fabric) are treated as live.
func (h *Health) Live(i int) bool {
	return i < 0 || i >= len(h.live) || h.live[i]
}

// DownAt returns the detection time for a dead node (meaningful only
// while !Live(i)).
func (h *Health) DownAt(i int) sim.Time { return h.downAt[i] }

// ReportTimeout feeds a data-path ErrNodeDead completion on node i into
// the strike counter, so detection under load outruns the heartbeat.
func (h *Health) ReportTimeout(i int) {
	if i < 0 || i >= len(h.live) || !h.live[i] {
		return
	}
	h.strike(i)
}

// tick is the heartbeat: one probe verdict per node, then rearm. A
// probe sent now arrives at now+ReqFlight; its failure would be known
// one DeadTimeout later, so strikes from this round are booked against
// the node immediately (the task period already dominates that lag —
// see the type comment on why the verdict itself is exact).
func (h *Health) tick() {
	for i, nic := range h.fabric {
		h.Probes.Inc()
		dead := nic.deadAt(h.env.Now() + nic.cfg.ReqFlight)
		switch {
		case dead && h.live[i]:
			h.strike(i)
		case !dead && h.live[i]:
			h.consec[i] = 0
		case !dead && !h.live[i]:
			// Rejoin window: the node answers probes again.
			h.live[i] = true
			h.consec[i] = 0
			h.Rejoins.Inc()
		}
	}
	h.task.FireAfter(h.cfg.Every)
}

func (h *Health) strike(i int) {
	if simcheck.On() {
		h.checkStrike(i)
	}
	h.consec[i]++
	if h.consec[i] < h.cfg.Threshold {
		return
	}
	h.live[i] = false
	h.downAt[i] = h.env.Now()
	h.Detected.Inc()
	if h.OnDown != nil {
		h.OnDown(i)
	}
}
