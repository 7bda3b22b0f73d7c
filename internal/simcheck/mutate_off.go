//go:build !simcheckmutate

package simcheck

// Mut is a constant false in normal builds, so mutation call sites
// dead-code-eliminate entirely.
func Mut(name string) bool { return false }
