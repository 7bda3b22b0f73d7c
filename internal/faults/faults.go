// Package faults is the deterministic chaos layer: a seed-driven fault
// plan injected into the RDMA fabric and the memory node. Three fault
// classes model the failures microsecond-scale disaggregation must
// survive:
//
//   - per-WR completion errors and RNR-style delays (Config.WRErrRate,
//     RNRRate/RNRDelay), delivered through rdma's completion-error and
//     QP error-state machinery;
//   - link degradation windows (LinkEvery/LinkFor/LinkFactor), during
//     which serialization and flight times inflate;
//   - memory-node stall windows (MemEvery/MemFor), scheduled onto
//     memnode.Node and served at window end.
//
// Every random choice comes from private RNG streams derived from
// (run seed, plan seed, stream id), one stream per fault class, so the
// fault schedule is a pure function of the seeds: the same run with the
// same plan produces byte-identical output, and the zero-value Config
// installs nothing and draws nothing.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/memnode"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config is a fault plan. The zero value disables all injection.
type Config struct {
	// WRErrRate is the per-work-request probability of a completion
	// error (the WR has no effect; the QP enters the error state).
	WRErrRate float64
	// RNRRate is the per-work-request probability of an RNR-NAK-style
	// delay; RNRDelay is the mean of the (exponential) extra latency.
	RNRRate  float64
	RNRDelay sim.Time

	// LinkEvery is the mean gap between link-degradation windows,
	// LinkFor the mean window duration, and LinkFactor the multiplier
	// (> 1) applied to serialization and flight times inside a window.
	// LinkEvery <= 0 disables this class.
	LinkEvery  sim.Time
	LinkFor    sim.Time
	LinkFactor float64

	// MemEvery is the mean gap between memory-node stall windows and
	// MemFor the mean stall duration. MemEvery <= 0 disables this class.
	MemEvery sim.Time
	MemFor   sim.Time

	// CrashAt schedules a full node crash (the node stops completing
	// work requests) at the given sim time when CrashSet is true;
	// CrashNode selects the victim. Unlike the probabilistic classes a
	// crash is a fixed scheduled event — no RNG stream is involved, so
	// the crash time is byte-reproducible across seeds. RejoinAt, when
	// RejoinSet, brings the node back (empty) at a later time.
	CrashAt   sim.Time
	CrashNode int
	CrashSet  bool
	RejoinAt  sim.Time
	RejoinSet bool

	// Node restricts the plan to a single memory node (shard) when
	// NodeSet is true; otherwise every node is targeted. The spec
	// grammar sets both via "node=<i>". A single-node system treats
	// "node=0" and the unrestricted plan identically.
	Node    int
	NodeSet bool

	// Seed salts the fault streams independently of the run seed, so the
	// same workload can be replayed under different fault schedules.
	Seed int64
}

// Targets reports whether the plan injects interceptor-driven faults
// on memory node i (crashes are scheduled directly on the NIC, not
// through an Injector).
func (c Config) Targets(i int) bool {
	return c.Injects() && (!c.NodeSet || c.Node == i)
}

// Injects reports whether the plan needs an Injector (any of the
// probabilistic, interceptor-driven classes is active).
func (c Config) Injects() bool {
	return c.WRErrRate > 0 || c.RNRRate > 0 ||
		(c.LinkEvery > 0 && c.LinkFactor > 1) || c.MemEvery > 0
}

// Enabled reports whether the plan does anything at all.
func (c Config) Enabled() bool {
	return c.Injects() || c.CrashSet
}

// FitsNodes reports whether the plan can run on a system of n memory
// nodes: a crash, and a node= restriction, must name one of them (a plan
// restricted to a node the system lacks would inject nothing, without a
// word). It is the one check behind both CLIs' usage error and
// core.NewSystem's panic.
func (c Config) FitsNodes(n int) error {
	if c.CrashSet && c.CrashNode >= n {
		return fmt.Errorf("crash plan targets node %d of %d", c.CrashNode, n)
	}
	if c.NodeSet && c.Node >= n {
		return fmt.Errorf("plan is restricted to node %d of %d", c.Node, n)
	}
	return nil
}

// Injector implements rdma.Interceptor for one simulation run. It is
// not safe for use by more than one sim.Env.
type Injector struct {
	cfg  Config
	node *memnode.Node

	wrRNG *sim.RNG // completion errors + RNR delays
	link  windowGen
	mem   windowGen

	// WRErrors counts injected completion errors, RNRDelays injected
	// RNR-style delays, LinkWindows generated degradation windows.
	WRErrors    stats.Counter
	RNRDelays   stats.Counter
	LinkWindows stats.Counter
}

// New builds an injector for a run. runSeed is the simulation's own
// seed; the plan's streams are derived from (runSeed, cfg.Seed, class)
// so that fault schedules never perturb — and are never perturbed by —
// the workload's draws. node may be nil when no memory node takes part
// (unit tests); stall windows are then kept internal.
func New(cfg Config, node *memnode.Node, runSeed int64) *Injector {
	return NewForNode(cfg, node, runSeed, 0)
}

// NewForNode builds the injector for memory node nodeIdx of a sharded
// backing store. Each node draws from its own stream triple — derived
// from (runSeed, cfg.Seed, nodeIdx) — so per-node fault schedules are
// mutually independent, and node 0's streams are exactly those of the
// single-node New (a one-node run is byte-identical either way).
func NewForNode(cfg Config, node *memnode.Node, runSeed int64, nodeIdx int) *Injector {
	base := 8 * uint64(nodeIdx)
	inj := &Injector{
		cfg:   cfg,
		node:  node,
		wrRNG: sim.NewRNG(streamSeed(runSeed, cfg.Seed, base+1)),
	}
	inj.link.init(sim.NewRNG(streamSeed(runSeed, cfg.Seed, base+2)), cfg.LinkEvery, cfg.LinkFor)
	inj.mem.init(sim.NewRNG(streamSeed(runSeed, cfg.Seed, base+3)), cfg.MemEvery, cfg.MemFor)
	return inj
}

// WROutcome implements rdma.Interceptor: one Bernoulli draw per enabled
// class per posted work request.
func (inj *Injector) WROutcome(kind rdma.OpKind, bytes int) (bool, sim.Time) {
	if inj.cfg.WRErrRate > 0 && inj.wrRNG.Bool(inj.cfg.WRErrRate) {
		inj.WRErrors.Inc()
		return true, 0
	}
	if inj.cfg.RNRRate > 0 && inj.wrRNG.Bool(inj.cfg.RNRRate) {
		inj.RNRDelays.Inc()
		return false, inj.wrRNG.Exp(inj.cfg.RNRDelay)
	}
	return false, 0
}

// LinkFactor implements rdma.Interceptor.
func (inj *Injector) LinkFactor(at sim.Time) float64 {
	if inj.cfg.LinkEvery <= 0 || inj.cfg.LinkFactor <= 1 {
		return 1
	}
	n := inj.link.ensure(at)
	inj.LinkWindows.Add(int64(n))
	if _, until, ok := inj.link.covering(at); ok && until > at {
		return inj.cfg.LinkFactor
	}
	return 1
}

// ServeDelay implements rdma.Interceptor: operations landing inside a
// memory-node stall window wait for its end.
func (inj *Injector) ServeDelay(at sim.Time) sim.Time {
	if inj.cfg.MemEvery <= 0 {
		return 0
	}
	if n := inj.mem.ensure(at); n > 0 && inj.node != nil {
		for _, w := range inj.mem.win[len(inj.mem.win)-n:] {
			inj.node.Pause(int64(w[0]), int64(w[1]))
		}
	}
	if inj.node != nil {
		return sim.Time(inj.node.AvailableAt(int64(at))) - at
	}
	if _, until, ok := inj.mem.covering(at); ok {
		return until - at
	}
	return 0
}

// windowGen lazily generates a chronological sequence of [from, until)
// windows with exponential gaps and durations. Generation is driven by
// queries: ensure extends the schedule past the queried time, so the
// window sequence depends only on the stream seed, never on how often
// or in what order the fabric asks.
type windowGen struct {
	rng        *sim.RNG
	every, dur sim.Time
	horizon    sim.Time // schedule generated through here
	win        [][2]sim.Time
}

func (g *windowGen) init(rng *sim.RNG, every, dur sim.Time) {
	g.rng, g.every, g.dur = rng, every, dur
}

// ensure extends the schedule until the last window ends after at,
// returning how many windows were added.
func (g *windowGen) ensure(at sim.Time) int {
	if g.every <= 0 {
		return 0
	}
	n := 0
	for g.horizon <= at {
		from := g.horizon + g.rng.Exp(g.every)
		until := from + g.rng.Exp(g.dur)
		g.win = append(g.win, [2]sim.Time{from, until})
		g.horizon = until
		n++
	}
	return n
}

// covering returns the window containing at, if any.
func (g *windowGen) covering(at sim.Time) (from, until sim.Time, ok bool) {
	i := sort.Search(len(g.win), func(i int) bool { return g.win[i][1] > at })
	if i < len(g.win) && g.win[i][0] <= at {
		return g.win[i][0], g.win[i][1], true
	}
	return 0, 0, false
}

// streamSeed derives an independent, non-zero RNG seed from the run
// seed, the plan seed, and a stream id (splitmix64-style finalizer).
func streamSeed(run, plan int64, stream uint64) int64 {
	h := uint64(run) ^ (0x9e3779b97f4a7c15 * (stream + 1))
	h = mix64(h)
	h = mix64(h ^ uint64(plan)*0xff51afd7ed558ccd)
	s := int64(h >> 1)
	if s == 0 {
		s = 1
	}
	return s
}

func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
