package migrate

import (
	"fmt"
	"strings"

	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/spec"
)

// maxFactor bounds float knobs so the canonical %g form stays exactly
// re-parseable and downstream arithmetic stays finite.
const maxFactor = 1e15

// clauses lists the grammar once, bound to c: ParseSpec and String both
// derive from it (see package spec), in String's rendering order. Every
// knob is a value >= 0 with zero meaning unset.
func (c *Config) clauses() []spec.Clause {
	return []spec.Clause{
		{Key: "on"},
		{Key: "epoch", Args: []spec.Arg{spec.Duration(&c.Epoch)}},
		{Key: "hot", Args: []spec.Arg{spec.Count(&c.HotThreshold)}},
		{Key: "bw", Args: []spec.Arg{spec.Factor(&c.Bandwidth, 0, maxFactor)}},
		{Key: "imb", Args: []spec.Arg{spec.Factor(&c.Imbalance, 0, maxFactor)}},
		{Key: "max", Args: []spec.Arg{spec.Count(&c.MaxMoves)}},
		{Key: "min", Args: []spec.Arg{spec.Count(&c.MinFaults)}},
	}
}

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
// "on". A bw so small that the copies' pacing gap, PageSize/bw cycles,
// exceeds the longest duration the grammar accepts (sim.MaxSpecTime) is
// refused. Example: "epoch=50us,hot=8,bw=0.25".
func ParseSpec(text string) (Config, error) {
	var cfg Config
	if text = strings.TrimSpace(text); text == "" || text == "off" {
		return cfg, nil
	}
	// "off" among other clauses is no clause of the list: an error.
	if err := spec.Parse("migrate", text, cfg.clauses()); err != nil {
		return Config{}, err
	}
	if gap := paging.PageSize / cfg.Bandwidth; cfg.Bandwidth != 0 && gap > float64(sim.MaxSpecTime) {
		return Config{}, fmt.Errorf("migrate: bw: %g bytes/cycle paces copies %g cycles apart (max %g)",
			cfg.Bandwidth, gap, float64(sim.MaxSpecTime))
	}
	cfg.Enabled = true
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
	return spec.String(c.clauses(), "on")
}
