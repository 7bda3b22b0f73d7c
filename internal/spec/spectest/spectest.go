// Package spectest is the one fuzz body of the two grammars built on
// package spec, -faults (faults.ParseSpec) and -migrate
// (migrate.ParseSpec): spec's external test runs it as the fuzz target,
// and faults and migrate run it under their own FuzzParseSpec names.
package spectest

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/migrate"
)

// seeds are both grammars' seed specs; every input goes to both.
var seeds = []string{
	// -faults
	"",
	"wr=0.01",
	"wr=0.01,rnr=0.005:20us,link=300us:50us:4,mem=800us:100us",
	"node=2,mem=25ms:100us",
	"rnr=0.1:4000",
	"link=1.5ms:50us:2.5,seed=7",
	"mem=1s:250µs",
	"wr=1e-3,node=0,seed=-9223372036854775808",
	"link=1e14:1:1.0000000000000002",
	"zap=1",
	"wr=NaN",
	"mem=Inf:1us",
	"crash=5ms:node=1",
	"crash=1ms,rejoin=2ms",
	"crash=250us",
	"crash=5ms:node=x",
	"crash=5ms:node=-1",
	"rejoin=1ms",
	"crash=2ms,rejoin=1ms",
	"crash=1e16",
	// -migrate
	"",
	"off",
	"on",
	"epoch=50us,hot=8,bw=0.25",
	"epoch=100us,hot=4,bw=0.5,imb=1.3,max=64,min=64",
	"epoch=1.5ms",
	"epoch=2s",
	"epoch=4000",
	"epoch=20µs",
	"imb=1.0000000000000002",
	"bw=1e14",
	"bw=NaN",
	"hot=-1",
	"zap=1",
	"off,hot=2",
	"on,on,on",
	"epoch=1e16",
	"min=0,max=0",
}

// FuzzParseSpec fuzzes both grammars with every input. Properties:
// ParseSpec never panics; an accepted spec round-trips — its canonical
// String() form re-parses to the identical config, whose rendering is
// the same (a fixed point); and a plan that does nothing renders as the
// disabled one, "none" / "off". This is what lets logs, CSV series keys
// and the rebalance CSV's migrate column stand in for the full plan.
func FuzzParseSpec(f *testing.F) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if cfg, err := faults.ParseSpec(text); err == nil {
			if cfg.Enabled() || cfg.NodeSet || cfg.Seed != 0 {
				roundTrip(t, text, cfg, faults.ParseSpec)
			} else if canon := cfg.String(); canon != "none" {
				t.Fatalf("inert fault plan %+v renders %q", cfg, canon)
			}
		}
		if cfg, err := migrate.ParseSpec(text); err == nil {
			roundTrip(t, text, cfg, migrate.ParseSpec)
			if canon := cfg.String(); !cfg.Enabled && canon != "off" {
				t.Fatalf("disabled migration %+v renders %q", cfg, canon)
			}
		}
	})
}

// roundTrip checks that cfg, parsed from text, re-parses from its
// canonical form to itself, and that the form is a fixed point.
func roundTrip[C interface {
	comparable
	String() string
}](t *testing.T, text string, cfg C, parse func(string) (C, error)) {
	canon := cfg.String()
	again, err := parse(canon)
	switch {
	case err != nil:
		t.Fatalf("canonical form %q of %q does not parse: %v", canon, text, err)
	case again != cfg:
		t.Fatalf("round trip of %q: %+v != %+v (canonical %q)", text, again, cfg, canon)
	case again.String() != canon:
		t.Fatalf("canonical form not a fixed point: %q -> %q", canon, again.String())
	}
}
