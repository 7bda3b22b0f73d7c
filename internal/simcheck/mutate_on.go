//go:build simcheckmutate

package simcheck

// activeMutation is the named bug this build injects. Only the
// mutation-smoke test sets it: it flips one named mutation at a time and
// asserts the matching oracle fires with a deterministic repro line.
var activeMutation string

// SetMutation selects which named bug to inject; "" disables all.
func SetMutation(name string) { activeMutation = name }

// Mut reports whether the named mutation is active. Call sites read it
// on rarely-taken paths only, so the lookup cost is irrelevant.
func Mut(name string) bool { return activeMutation == name }
