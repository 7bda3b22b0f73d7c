package migrate_test

import (
	"testing"

	"repro/internal/spec/spectest"
)

// FuzzParseSpec is spec's fuzz target (both grammars, one seed list) under
// this package's name.
func FuzzParseSpec(f *testing.F) { spectest.FuzzParseSpec(f) }
