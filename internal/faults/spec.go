package faults

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/spec"
)

// clauses lists the grammar once, bound to c: ParseSpec and String both
// derive from it (see package spec), in String's rendering order.
func (c *Config) clauses() []spec.Clause {
	return []spec.Clause{
		{Key: "wr", Args: []spec.Arg{spec.Rate(&c.WRErrRate)}},
		{Key: "rnr", Args: []spec.Arg{spec.Rate(&c.RNRRate), spec.Duration(&c.RNRDelay)}},
		{Key: "link", Args: []spec.Arg{spec.Duration(&c.LinkEvery), spec.Duration(&c.LinkFor),
			spec.Factor(&c.LinkFactor, math.Nextafter(1, 2), math.MaxFloat64)}, // a slowdown: finite and > 1
			On: func() bool { return c.LinkEvery > 0 && c.LinkFactor > 1 }},
		{Key: "mem", Args: []spec.Arg{spec.Duration(&c.MemEvery), spec.Duration(&c.MemFor)}},
		{Key: "crash", Args: []spec.Arg{spec.Duration(&c.CrashAt)},
			TailName: "node", Tail: spec.Count(&c.CrashNode), Set: &c.CrashSet},
		{Key: "rejoin", Args: []spec.Arg{spec.Duration(&c.RejoinAt)}, Set: &c.RejoinSet,
			On: func() bool { return c.CrashSet && c.RejoinSet }},
		{Key: "node", Args: []spec.Arg{spec.Count(&c.Node)}, Set: &c.NodeSet},
		{Key: "seed", Args: []spec.Arg{spec.Int(&c.Seed)}},
	}
}

// ParseSpec parses the -faults flag grammar: a comma-separated list of
// fault classes, each "key=value" with colon-separated parameters.
//
//	wr=RATE              completion-error probability per work request
//	rnr=RATE:DUR         RNR-delay probability and mean delay
//	link=EVERY:FOR:MULT  mean gap, mean duration, slowdown factor (> 1)
//	mem=EVERY:FOR        memory-node stalls: mean gap, mean duration
//	crash=T[:node=I]     kill memory node I (default 0) at time T
//	rejoin=T             crashed node comes back empty at time T (> crash)
//	node=I               restrict the plan to memory node I (sharded runs)
//	seed=N               fault-stream seed (also settable via -fault-seed)
//
// Durations accept "us"/"µs", "ms", "s" suffixes, or bare CPU cycles.
// Example: "wr=0.01,rnr=0.005:20us,link=300us:50us:4,mem=800us:100us".
// With "node=2,mem=25ms:100us" only memory node 2 stalls; the other
// shards stay healthy. Unlike the probabilistic classes, crash is a
// scheduled event: "crash=5ms:node=1" makes node 1 stop completing
// work requests at exactly 5ms into the run, every run, independent of
// any seed. The empty string parses to the disabled plan, and a class
// given a zero rate or gap is disabled: its other values are dropped, so
// the canonical form round-trips to the identical plan.
func ParseSpec(text string) (Config, error) {
	var cfg Config
	if text = strings.TrimSpace(text); text == "" {
		return cfg, nil
	}
	if err := spec.Parse("faults", text, cfg.clauses()); err != nil {
		return Config{}, err
	}
	if err := cfg.CheckCrash(); err != nil {
		return Config{}, fmt.Errorf("faults: %v", err)
	}
	return cfg, nil
}

// String renders the plan in ParseSpec's grammar (the canonical form
// used in logs and CSV keys). The disabled plan renders as "none".
func (c Config) String() string { return spec.String(c.clauses(), "none") }
