//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// allocation guard skips under it (instrumented allocation breaks the
// accounting).
const raceEnabled = true
