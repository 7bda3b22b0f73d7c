// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel.
//
// Simulated time is counted in CPU cycles of the modeled machine (an Intel
// Xeon Gold 6330 at 2.0 GHz, the paper's compute node), so latency
// breakdowns reported in cycles by the paper are directly comparable to
// values produced here.
//
// Every simulated activity is an event on one queue, fired by one loop:
//
//   - plain events: a callback scheduled at an absolute time;
//   - tasks (Task): a state machine whose callback fires at the times it
//     arms itself for, and may wait on a Gate. Every actor of an
//     assembled system is one;
//   - processes (Proc): a task whose callback resumes a coroutine, so
//     that a harness can block on time (Sleep) or on a gate in ordinary
//     straight-line Go.
//
// Determinism: exactly one callback or process body runs at any instant,
// events at equal timestamps fire in schedule order, and all randomness
// is drawn from a seeded PRNG owned by the environment.
package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Time is a point (or span) of simulated time, measured in CPU cycles.
type Time int64

// CyclesPerSec is the modeled core frequency: 2.0 GHz, matching the
// paper's Xeon Gold 6330 compute node.
const CyclesPerSec = 2_000_000_000

// CyclesPerMicro is the number of cycles in one microsecond.
const CyclesPerMicro = CyclesPerSec / 1_000_000

// Micros converts microseconds to cycles.
func Micros(us float64) Time { return Time(us * CyclesPerMicro) }

// Millis converts milliseconds to cycles.
func Millis(ms float64) Time { return Time(ms * 1000 * CyclesPerMicro) }

// Seconds converts seconds to cycles.
func Seconds(s float64) Time { return Time(s * CyclesPerSec) }

// Micros reports t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / CyclesPerMicro }

// Millis reports t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) / (1000 * CyclesPerMicro) }

// Seconds reports t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / CyclesPerSec }

// String formats t with an adaptive unit for logs and error messages.
func (t Time) String() string {
	switch {
	case t < 10*CyclesPerMicro:
		return fmt.Sprintf("%dcy", int64(t))
	case t < Millis(10):
		return fmt.Sprintf("%.2fus", t.Micros())
	case t < Seconds(10):
		return fmt.Sprintf("%.2fms", t.Millis())
	default:
		return fmt.Sprintf("%.2fs", t.Seconds())
	}
}

// MaxSpecTime bounds durations ParseTime accepts (≈ 5.8 sim-days). The
// bound keeps every accepted duration exactly representable in float64,
// so the canonical SpecString form re-parses to the identical value.
const MaxSpecTime Time = 1e15

// ParseTime parses a duration in the grammar the -faults and -migrate
// specs share: "20us" (or "20µs"), "1.5ms", "2s", or bare cycles.
func ParseTime(s string) (Time, error) {
	mult := 1.0
	num := s
	switch {
	case strings.HasSuffix(s, "us"):
		num, mult = s[:len(s)-2], float64(Micros(1))
	case strings.HasSuffix(s, "µs"):
		num, mult = strings.TrimSuffix(s, "µs"), float64(Micros(1))
	case strings.HasSuffix(s, "ms"):
		num, mult = s[:len(s)-2], float64(Millis(1))
	case strings.HasSuffix(s, "s"):
		num, mult = s[:len(s)-1], float64(Seconds(1))
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || math.IsNaN(f) || f < 0 || f*mult > float64(MaxSpecTime) {
		return 0, fmt.Errorf("duration %q: want e.g. 20us, 1.5ms, or cycles (max %g cycles)", s, float64(MaxSpecTime))
	}
	return Time(f * mult), nil
}

// SpecString renders t in the ParseTime grammar. Each branch is exact —
// whole milliseconds, whole microseconds, or bare cycles — so
// ParseTime(t.SpecString()) always recovers t.
func (t Time) SpecString() string {
	us, ms := Micros(1), Millis(1)
	switch {
	case t >= ms && t%ms == 0:
		return fmt.Sprintf("%dms", int64(t/ms))
	case t%us == 0:
		return fmt.Sprintf("%dus", int64(t/us))
	default:
		return fmt.Sprintf("%d", int64(t))
	}
}
