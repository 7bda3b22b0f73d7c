package spec_test

import (
	"testing"

	"repro/internal/spec/spectest"
)

// FuzzParseSpec fuzzes the two grammars built on this package, -faults and
// -migrate, with every input (spectest.FuzzParseSpec has the properties).
// It is the target CI fuzzes.
func FuzzParseSpec(f *testing.F) { spectest.FuzzParseSpec(f) }
