package migrate

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// ParseSpec parses the -migrate flag grammar: "off" (or the empty
// string) disables migration, "on" enables it with the calibrated
// defaults, and a comma-separated list of knobs enables it with
// overrides:
//
//	epoch=DUR  heat-decay / planning interval
//	hot=N      minimum decayed heat for a page to be eligible
//	bw=F       copy bandwidth cap, bytes per cycle
//	imb=F      max/mean per-node fault ratio that triggers planning
//	max=N      migrations planned per epoch, at most
//	min=N      minimum fault count on the hottest node per epoch
//
// Durations accept "us"/"µs", "ms", "s" suffixes, or bare CPU cycles,
// exactly as the -faults grammar does. Zero-valued knobs are "unset"
// and take the default at construction, so "epoch=0" is equivalent to
// "on". Example: "epoch=50us,hot=8,bw=0.25".
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return cfg, nil
	}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "on" {
			cfg.Enabled = true
			continue
		}
		if item == "off" {
			return Config{}, fmt.Errorf("migrate: %q: off cannot be combined with other clauses", spec)
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return Config{}, fmt.Errorf("migrate: %q: want key=value (or on/off)", item)
		}
		var err error
		switch key {
		case "epoch":
			cfg.Epoch, err = sim.ParseTime(val)
		case "hot":
			err = parseCount(val, &cfg.HotThreshold)
		case "bw":
			err = parseFactor(val, &cfg.Bandwidth)
		case "imb":
			err = parseFactor(val, &cfg.Imbalance)
		case "max":
			err = parseCount(val, &cfg.MaxMoves)
		case "min":
			err = parseCount(val, &cfg.MinFaults)
		default:
			return Config{}, fmt.Errorf("migrate: unknown knob %q (want epoch, hot, bw, imb, max, min)", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("migrate: %s: %v", key, err)
		}
		cfg.Enabled = true
	}
	return cfg, nil
}

// String renders the config in ParseSpec's grammar (the canonical form
// used in logs and CSV keys): "off" when disabled, "on" when enabled
// with every knob unset, otherwise the set knobs — so
// ParseSpec(c.String()) always recovers the identical config.
func (c Config) String() string {
	if !c.Enabled {
		return "off"
	}
	var parts []string
	if c.Epoch > 0 {
		parts = append(parts, fmt.Sprintf("epoch=%s", c.Epoch.SpecString()))
	}
	if c.HotThreshold > 0 {
		parts = append(parts, fmt.Sprintf("hot=%d", c.HotThreshold))
	}
	if c.Bandwidth > 0 {
		parts = append(parts, fmt.Sprintf("bw=%g", c.Bandwidth))
	}
	if c.Imbalance > 0 {
		parts = append(parts, fmt.Sprintf("imb=%g", c.Imbalance))
	}
	if c.MaxMoves > 0 {
		parts = append(parts, fmt.Sprintf("max=%d", c.MaxMoves))
	}
	if c.MinFaults > 0 {
		parts = append(parts, fmt.Sprintf("min=%d", c.MinFaults))
	}
	if len(parts) == 0 {
		return "on"
	}
	return strings.Join(parts, ",")
}

// parseCount parses a non-negative integer knob (0 = unset).
func parseCount(s string, out *int) error {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return fmt.Errorf("count %q must be an integer >= 0", s)
	}
	*out = n
	return nil
}

// maxFactor bounds float knobs so the canonical %g form stays exactly
// re-parseable and downstream arithmetic stays finite.
const maxFactor = 1e15

// parseFactor parses a non-negative finite float knob (0 = unset).
func parseFactor(s string, out *float64) error {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || f < 0 || f > maxFactor {
		return fmt.Errorf("value %q must be finite and in [0, %g]", s, float64(maxFactor))
	}
	*out = f
	return nil
}
