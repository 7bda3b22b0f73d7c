package faults_test

import (
	"testing"

	"repro/internal/spec/spectest"
)

// FuzzParseSpec is spec's fuzz target (both grammars, one seed list) under
// this package's name, which keeps running its corpus in testdata/fuzz.
func FuzzParseSpec(f *testing.F) { spectest.FuzzParseSpec(f) }
