//go:build !race

package sim

// raceEnabled reports whether the race detector is compiled in; the
// alloc-guard tests skip under it because the detector instruments
// allocation (see race_on.go).
const raceEnabled = false
