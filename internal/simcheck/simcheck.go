// Package simcheck is the arming gate and violation vocabulary for the
// simulator's invariant oracles. The oracles themselves live in the
// packages that own the state they guard (sim, paging, rdma, memnode):
// each check is wrapped in `if simcheck.On()` so a plain build with the
// checker disarmed pays a single predictable branch per site, and a
// `-tags simcheck` build compiles the checks in unconditionally.
//
// Oracles are purely observational: they never draw from the run's RNG
// and never schedule events, so an armed run dispatches the exact same
// event sequence as a disarmed one and fault-free goldens stay
// byte-identical either way.
//
// A failed oracle panics with a *Violation carrying structured fields
// (frame id, page, node, ...) so the scenario explorer and the chaos
// tests can recover it, attribute it to a named oracle, and print a
// deterministic one-line repro.
package simcheck

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// armed is the runtime switch behind the -check flags. It is global —
// the explorer and the cmds arm it before any system is built — and
// atomic so parallel bench runs can read it racelessly.
var armed atomic.Bool

// SetArmed turns the runtime oracles on or off. Arm before building a
// system: per-Env oracle state (the blocked-waiter registry) is sized
// at construction time.
func SetArmed(on bool) { armed.Store(on) }

// On reports whether invariant oracles should run: true in a
// `-tags simcheck` build, or when armed at runtime via SetArmed.
func On() bool { return TagEnabled || armed.Load() }

// Field is one structured attribute of a violation, ordered so the
// rendered message is deterministic.
type Field struct {
	Key string
	Val any
}

// Violation is a failed invariant oracle. It is delivered by panic from
// the oracle site (the simulator is already mid-corruption; unwinding
// is the only safe continuation) and recovered by the explorer.
type Violation struct {
	// Oracle names the invariant, e.g. "paging/dirty-free" or
	// "sim/dispatch-order". The prefix is the owning package.
	Oracle string
	// Msg is the human-readable statement of what went wrong.
	Msg string
	// Fields attribute the violation (frame id, page, node, ...).
	Fields []Field
}

// Error renders "oracle: msg [k=v k=v ...]".
func (v *Violation) Error() string {
	var b strings.Builder
	b.WriteString(v.Oracle)
	b.WriteString(": ")
	b.WriteString(v.Msg)
	for _, f := range v.Fields {
		fmt.Fprintf(&b, " %s=%v", f.Key, f.Val)
	}
	return b.String()
}

// With appends a structured field and returns v for chaining.
func (v *Violation) With(key string, val any) *Violation {
	v.Fields = append(v.Fields, Field{key, val})
	return v
}

// New builds a violation without raising it, for call sites (like the
// paging invariant sweep) that return errors rather than panic.
func New(oracle, format string, args ...any) *Violation {
	return &Violation{Oracle: oracle, Msg: fmt.Sprintf(format, args...)}
}

// Fail raises v as a panic. Split from New so structured fields can be
// attached in between.
func Fail(v *Violation) { panic(v) }

// AsViolation extracts a *Violation from a recovered panic value or a
// returned error, unwrapping wrapped errors.
func AsViolation(r any) (*Violation, bool) {
	switch x := r.(type) {
	case *Violation:
		return x, true
	case interface{ Unwrap() error }:
		if err := x.Unwrap(); err != nil {
			return AsViolation(err)
		}
	}
	return nil, false
}
