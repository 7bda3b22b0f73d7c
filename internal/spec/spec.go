// Package spec is the one key=value grammar under the -faults and
// -migrate flags: a comma-separated list of clauses, each a key and its
// colon-separated values ("rnr=0.005:20us"), optionally followed by one
// named value ("crash=5ms:node=1"), or a bare word ("on"). A plan lists
// its clauses once, as pointers into its config; Parse and String both
// walk that list, so what String renders is what Parse reads back — the
// round trip holds by construction, value by value: a clause that is on
// renders every value in a form its parser maps to the identical value,
// and a clause parsed off is stored as zeroes, which is how it renders.
package spec

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Arg is one value of a clause, bound to the variable that holds it.
type Arg struct {
	parse  func(string) error
	render func() string
	clear  func()
	isSet  func() bool // differs from the zero value
}

func arg[T comparable](p *T, parse func(string) (T, error), render func(T) string) Arg {
	var zero T
	return Arg{
		parse:  func(s string) (err error) { *p, err = parse(s); return err },
		render: func() string { return render(*p) },
		clear:  func() { *p = zero },
		isSet:  func() bool { return *p != zero },
	}
}

func renderFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// Rate is a probability in [0, 1].
func Rate(p *float64) Arg { return Factor(p, 0, 1) }

// Factor is a float in [lo, hi]; NaN is in no interval.
func Factor(p *float64, lo, hi float64) Arg {
	return arg(p, func(s string) (float64, error) {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || !(f >= lo && f <= hi) {
			return 0, fmt.Errorf("value %q must be a number in [%g, %g]", s, lo, hi)
		}
		return f, nil
	}, renderFloat)
}

// Duration is a span of simulated time in sim.ParseTime's grammar.
func Duration(p *sim.Time) Arg { return arg(p, sim.ParseTime, sim.Time.SpecString) }

// Count is an integer >= 0.
func Count(p *int) Arg {
	return arg(p, func(s string) (int, error) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("count %q must be an integer >= 0", s)
		}
		return n, nil
	}, strconv.Itoa)
}

// Int is any 64-bit integer (a seed).
func Int(p *int64) Arg {
	return arg(p, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) },
		func(n int64) string { return strconv.FormatInt(n, 10) })
}

// Clause is one key of a grammar. With no Args it is a bare word, which
// parses and never renders.
type Clause struct {
	Key  string
	Args []Arg
	// Tail, if named, is one more value a spec may append as name=value
	// (left as it was when absent); it always renders.
	TailName string
	Tail     Arg
	// Set, if not nil, is the clause's presence bit: parsing it sets it.
	Set *bool
	// On reports whether the clause is in effect: String renders it only
	// then, and Parse zeroes the values of one parsed off. Nil means the
	// presence bit, or without one that the first value is non-zero.
	On func() bool
}

func (c *Clause) on() bool {
	switch {
	case c.On != nil:
		return c.On()
	case c.Set != nil:
		return *c.Set
	}
	return len(c.Args) > 0 && c.Args[0].isSet()
}

// Parse reads text into the variables the clauses are bound to; a later
// clause of the same key overrides an earlier one. Errors are prefixed
// "owner: ". On an error the variables hold a partial parse.
func Parse(owner, text string, clauses []Clause) error {
	for _, item := range strings.Split(text, ",") {
		item = strings.TrimSpace(item)
		key, val, hasVal := strings.Cut(item, "=")
		var c *Clause
		for i := range clauses {
			if clauses[i].Key == key {
				c = &clauses[i]
			}
		}
		if c == nil && hasVal {
			keys := make([]string, len(clauses))
			for i := range clauses {
				keys[i] = clauses[i].Key
			}
			return fmt.Errorf("%s: unknown clause %q (want %s)", owner, key, strings.Join(keys, ", "))
		}
		if c == nil || hasVal != (len(c.Args) > 0) {
			return fmt.Errorf("%s: %q: want key=value", owner, item)
		}
		if hasVal {
			if err := c.parse(strings.Split(val, ":")); err != nil {
				return fmt.Errorf("%s: %s: %v", owner, key, err)
			}
		}
		if c.Set != nil {
			*c.Set = true
		}
		if !c.on() {
			for _, a := range c.Args {
				a.clear()
			}
		}
	}
	return nil
}

func (c *Clause) parse(parts []string) error {
	n := len(c.Args)
	if len(parts) != n && (c.TailName == "" || len(parts) != n+1) {
		return fmt.Errorf("wants %d colon-separated values, got %d", n, len(parts))
	}
	for i, a := range c.Args {
		if err := a.parse(parts[i]); err != nil {
			return err
		}
	}
	if len(parts) > n {
		name, v, ok := strings.Cut(parts[n], "=")
		if !ok || name != c.TailName {
			return fmt.Errorf("value %d, %q, must be %s=…", n+1, parts[n], c.TailName)
		}
		return c.Tail.parse(v)
	}
	return nil
}

// String renders the clauses that are on, in list order, in the grammar
// Parse reads; a plan none of whose clauses is on renders as none.
func String(clauses []Clause, none string) string {
	var parts []string
	for i := range clauses {
		c := &clauses[i]
		if !c.on() {
			continue
		}
		vals := make([]string, len(c.Args), len(c.Args)+1)
		for j, a := range c.Args {
			vals[j] = a.render()
		}
		if c.TailName != "" {
			vals = append(vals, c.TailName+"="+c.Tail.render())
		}
		parts = append(parts, c.Key+"="+strings.Join(vals, ":"))
	}
	if len(parts) == 0 {
		return none
	}
	return strings.Join(parts, ",")
}
