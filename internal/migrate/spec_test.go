package migrate

import (
	"testing"

	"repro/internal/sim"
)

// TestParseSpec pins the -migrate grammar: every accepted form maps to
// the documented config, and malformed specs are rejected with errors
// rather than half-parsed plans.
func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec string
		want Config
		err  bool
	}{
		{spec: "", want: Config{}},
		{spec: "off", want: Config{}},
		{spec: " off ", want: Config{}},
		{spec: "on", want: Config{Enabled: true}},
		{spec: "epoch=50us", want: Config{Enabled: true, Epoch: sim.Micros(50)}},
		{spec: "epoch=1.5ms", want: Config{Enabled: true, Epoch: sim.Millis(1.5)}},
		{spec: "epoch=2s", want: Config{Enabled: true, Epoch: sim.Millis(2000)}},
		{spec: "epoch=4000", want: Config{Enabled: true, Epoch: 4000}},
		{spec: "epoch=20µs", want: Config{Enabled: true, Epoch: sim.Micros(20)}},
		{spec: "hot=8", want: Config{Enabled: true, HotThreshold: 8}},
		{spec: "bw=0.25", want: Config{Enabled: true, Bandwidth: 0.25}},
		{spec: "bw=4.096e-12", want: Config{Enabled: true, Bandwidth: 4.096e-12}}, // a gap of exactly MaxSpecTime
		{spec: "imb=1.3", want: Config{Enabled: true, Imbalance: 1.3}},
		{spec: "max=16,min=4", want: Config{Enabled: true, MaxMoves: 16, MinFaults: 4}},
		{spec: "on,hot=2", want: Config{Enabled: true, HotThreshold: 2}},
		{spec: "epoch=50us,hot=8,bw=0.25,imb=1.2,max=256,min=16",
			want: Config{Enabled: true, Epoch: sim.Micros(50), HotThreshold: 8,
				Bandwidth: 0.25, Imbalance: 1.2, MaxMoves: 256, MinFaults: 16}},
		// Zero knobs are "unset": equivalent to plain "on".
		{spec: "epoch=0", want: Config{Enabled: true}},

		{spec: "off,hot=2", err: true},  // off combines with nothing
		{spec: "zap=1", err: true},      // unknown knob
		{spec: "hot", err: true},        // no value
		{spec: "hot=-1", err: true},     // counts are non-negative
		{spec: "hot=2.5", err: true},    // counts are integers
		{spec: "bw=NaN", err: true},     // factors are finite
		{spec: "bw=Inf", err: true},     //
		{spec: "bw=-0.5", err: true},    // and non-negative
		{spec: "bw=1e16", err: true},    // and bounded
		{spec: "bw=1e-300", err: true},  // its pacing gap too
		{spec: "bw=4e-12", err: true},   //
		{spec: "imb=x", err: true},      //
		{spec: "epoch=1e16", err: true}, // durations are bounded
		{spec: "epoch=-5us", err: true}, // and non-negative
		{spec: "epoch=fast", err: true}, //
	}
	for _, c := range cases {
		got, err := ParseSpec(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("ParseSpec(%q) = %+v, want error", c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

// TestStringRoundTrip pins the canonical form: String() re-parses to
// the identical config and is a fixed point, so log lines and CSV
// series keys can stand in for the plan.
func TestStringRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Enabled: true},
		DefaultConfig(),
		{Enabled: true, Epoch: sim.Micros(200), HotThreshold: 4, Bandwidth: 0.25,
			Imbalance: 1.2, MaxMoves: 256, MinFaults: 16},
		{Enabled: true, Epoch: 12345}, // bare cycles, not a whole microsecond
		{Enabled: true, Bandwidth: 1.0 / 3.0},
	} {
		canon := cfg.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %+v does not parse: %v", canon, cfg, err)
		}
		if again != cfg {
			t.Fatalf("round trip of %+v via %q = %+v", cfg, canon, again)
		}
		if again.String() != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, again.String())
		}
	}
}

// TestWithDefaults pins the construction-time normalization: zero knobs
// take the calibrated defaults, set knobs survive — including values
// below the defaults, which the planner's trigger arithmetic relies on
// (Imbalance 1.0 means "always rebalance").
func TestWithDefaults(t *testing.T) {
	def := DefaultConfig()
	got := Config{Enabled: true}.withDefaults()
	got.Enabled = true
	if got != def {
		t.Fatalf("withDefaults of the zero config = %+v, want %+v", got, def)
	}
	kept := Config{Enabled: true, Epoch: 1, HotThreshold: 1, Bandwidth: 0.01,
		Imbalance: 1.0, MaxMoves: 1, MinFaults: 1}
	if w := kept.withDefaults(); w != kept {
		t.Fatalf("withDefaults clobbered set knobs: %+v -> %+v", kept, w)
	}
}
