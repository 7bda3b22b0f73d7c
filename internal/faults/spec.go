package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

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
// any seed. The empty string parses to the disabled plan.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, item := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(item), "=")
		if !ok {
			return Config{}, fmt.Errorf("faults: %q: want key=value", item)
		}
		parts := strings.Split(val, ":")
		var err error
		switch key {
		case "wr":
			err = parseArgs(key, parts, 1, func(p []string) error {
				return parseRate(p[0], &cfg.WRErrRate)
			})
		case "rnr":
			err = parseArgs(key, parts, 2, func(p []string) (e error) {
				if e = parseRate(p[0], &cfg.RNRRate); e != nil {
					return e
				}
				if cfg.RNRDelay, e = sim.ParseTime(p[1]); e != nil {
					return e
				}
				if cfg.RNRRate == 0 {
					// A zero rate disables the class; drop the payload so
					// the canonical form round-trips to the identical plan.
					cfg.RNRDelay = 0
				}
				return nil
			})
		case "link":
			err = parseArgs(key, parts, 3, func(p []string) (e error) {
				if cfg.LinkEvery, e = sim.ParseTime(p[0]); e != nil {
					return e
				}
				if cfg.LinkFor, e = sim.ParseTime(p[1]); e != nil {
					return e
				}
				f, e := strconv.ParseFloat(p[2], 64)
				if e != nil || math.IsNaN(f) || math.IsInf(f, 0) || f <= 1 {
					return fmt.Errorf("slowdown factor %q must be finite and > 1", p[2])
				}
				cfg.LinkFactor = f
				if cfg.LinkEvery == 0 {
					// A zero gap disables the class (see rnr above).
					cfg.LinkFor, cfg.LinkFactor = 0, 0
				}
				return nil
			})
		case "mem":
			err = parseArgs(key, parts, 2, func(p []string) (e error) {
				if cfg.MemEvery, e = sim.ParseTime(p[0]); e != nil {
					return e
				}
				if cfg.MemFor, e = sim.ParseTime(p[1]); e != nil {
					return e
				}
				if cfg.MemEvery == 0 {
					// A zero gap disables the class (see rnr above).
					cfg.MemFor = 0
				}
				return nil
			})
		case "crash":
			if len(parts) != 1 && len(parts) != 2 {
				return Config{}, fmt.Errorf("faults: crash wants TIME or TIME:node=I, got %q", val)
			}
			var e error
			if cfg.CrashAt, e = sim.ParseTime(parts[0]); e != nil {
				return Config{}, fmt.Errorf("faults: crash: %v", e)
			}
			cfg.CrashSet = true
			if len(parts) == 2 {
				nk, nv, ok := strings.Cut(parts[1], "=")
				if !ok || nk != "node" {
					return Config{}, fmt.Errorf("faults: crash %q: second parameter must be node=I", val)
				}
				n, e := strconv.Atoi(nv)
				if e != nil || n < 0 {
					return Config{}, fmt.Errorf("faults: crash node %q: want a node index >= 0", nv)
				}
				cfg.CrashNode = n
			}
		case "rejoin":
			err = parseArgs(key, parts, 1, func(p []string) (e error) {
				if cfg.RejoinAt, e = sim.ParseTime(p[0]); e != nil {
					return e
				}
				cfg.RejoinSet = true
				return nil
			})
		case "node":
			n, e := strconv.Atoi(val)
			if e != nil || n < 0 {
				return Config{}, fmt.Errorf("faults: node %q: want a node index >= 0", val)
			}
			cfg.Node, cfg.NodeSet = n, true
		case "seed":
			n, e := strconv.ParseInt(val, 10, 64)
			if e != nil {
				return Config{}, fmt.Errorf("faults: seed %q: %v", val, e)
			}
			cfg.Seed = n
		default:
			return Config{}, fmt.Errorf("faults: unknown class %q (want wr, rnr, link, mem, crash, rejoin, node, seed)", key)
		}
		if err != nil {
			return Config{}, err
		}
	}
	if cfg.RejoinSet {
		if !cfg.CrashSet {
			return Config{}, fmt.Errorf("faults: rejoin=%s needs a crash= clause", cfg.RejoinAt.SpecString())
		}
		if cfg.RejoinAt <= cfg.CrashAt {
			return Config{}, fmt.Errorf("faults: rejoin time %s must be after crash time %s",
				cfg.RejoinAt.SpecString(), cfg.CrashAt.SpecString())
		}
	}
	return cfg, nil
}

// String renders the plan in ParseSpec's grammar (the canonical form
// used in logs and CSV keys). The disabled plan renders as "none".
func (c Config) String() string {
	var parts []string
	if c.WRErrRate > 0 {
		parts = append(parts, fmt.Sprintf("wr=%g", c.WRErrRate))
	}
	if c.RNRRate > 0 {
		parts = append(parts, fmt.Sprintf("rnr=%g:%s", c.RNRRate, c.RNRDelay.SpecString()))
	}
	if c.LinkEvery > 0 && c.LinkFactor > 1 {
		parts = append(parts, fmt.Sprintf("link=%s:%s:%g",
			c.LinkEvery.SpecString(), c.LinkFor.SpecString(), c.LinkFactor))
	}
	if c.MemEvery > 0 {
		parts = append(parts, fmt.Sprintf("mem=%s:%s", c.MemEvery.SpecString(), c.MemFor.SpecString()))
	}
	if c.CrashSet {
		parts = append(parts, fmt.Sprintf("crash=%s:node=%d", c.CrashAt.SpecString(), c.CrashNode))
		if c.RejoinSet {
			parts = append(parts, fmt.Sprintf("rejoin=%s", c.RejoinAt.SpecString()))
		}
	}
	if c.NodeSet {
		parts = append(parts, fmt.Sprintf("node=%d", c.Node))
	}
	if c.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", c.Seed))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

func parseArgs(key string, parts []string, want int, fn func([]string) error) error {
	if len(parts) != want {
		return fmt.Errorf("faults: %s wants %d colon-separated values, got %d", key, want, len(parts))
	}
	if err := fn(parts); err != nil {
		return fmt.Errorf("faults: %s: %v", key, err)
	}
	return nil
}

func parseRate(s string, out *float64) error {
	f, err := strconv.ParseFloat(s, 64)
	// The negated comparison rejects NaN along with out-of-range values.
	if err != nil || !(f >= 0 && f <= 1) {
		return fmt.Errorf("rate %q must be in [0, 1]", s)
	}
	*out = f
	return nil
}
