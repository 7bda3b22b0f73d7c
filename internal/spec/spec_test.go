package spec

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// toy is a grammar with one clause of every shape the two real grammars
// use (faults.Config and migrate.Config, whose own tests and fuzz targets
// pin their accept / reject decisions and round trips).
type toy struct {
	Rate    float64
	Delay   sim.Time
	At      sim.Time
	Node    int
	Crashed bool
	Seed    int64
}

func (c *toy) clauses() []Clause {
	return []Clause{
		{Key: "on"},
		{Key: "rnr", Args: []Arg{Rate(&c.Rate), Duration(&c.Delay)}},
		{Key: "crash", Args: []Arg{Duration(&c.At)}, TailName: "node", Tail: Count(&c.Node), Set: &c.Crashed},
		{Key: "seed", Args: []Arg{Int(&c.Seed)}},
	}
}

func TestParseAndStringShareTheClauseList(t *testing.T) {
	for _, tc := range []struct {
		text, canon string
		want        toy
	}{
		{"on", "none", toy{}},
		{"rnr=0.5:20us", "rnr=0.5:20us", toy{Rate: 0.5, Delay: sim.Micros(20)}},
		{"rnr=0:20us", "none", toy{}}, // parsed off: stored as it renders
		{" crash=0 , on", "crash=0us:node=0", toy{Crashed: true}},
		{"crash=1ms:node=3,seed=-7", "crash=1ms:node=3,seed=-7", toy{At: sim.Millis(1), Node: 3, Crashed: true, Seed: -7}},
		{"seed=1,seed=0", "none", toy{}},
	} {
		var got toy
		if err := Parse("toy", tc.text, got.clauses()); err != nil || got != tc.want {
			t.Errorf("Parse(%q) = %+v, %v; want %+v", tc.text, got, err, tc.want)
		}
		if canon := String(got.clauses(), "none"); canon != tc.canon {
			t.Errorf("String of %q = %q, want %q", tc.text, canon, tc.canon)
		}
		var again toy
		if tc.canon != "none" && (Parse("toy", tc.canon, again.clauses()) != nil || again != got) {
			t.Errorf("canonical %q re-parses to %+v, want %+v", tc.canon, again, got)
		}
	}
	for _, bad := range []string{"", "zap=1", "rnr", "on=1", "rnr=0.5", "rnr=2:1us", "rnr=NaN:1us", "rnr=0.5:fast",
		"crash=1ms:zone=1", "crash=1ms:node=-1", "crash=1ms:node=1:2", "seed=1.5", "seed=1:2", "rnr=0.1:1us,"} {
		var c toy
		if err := Parse("toy", bad, c.clauses()); err == nil || !strings.HasPrefix(err.Error(), "toy: ") {
			t.Errorf("Parse(%q) = %v, want an error prefixed \"toy: \"", bad, err)
		}
	}
}
