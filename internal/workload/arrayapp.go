package workload

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ArrayApp is the paper's microbenchmark (§2, §5.1): an array in remote
// memory; each request carries a random index and the handler replies
// with the value at that index. With a 20 % local-DRAM ratio this makes
// ~80 % of requests take exactly one page fault — the cleanest probe of
// fault-handling policy.
type ArrayApp struct {
	mgr     *paging.Manager
	space   *paging.Space
	entries int64

	// ParseCost and ReplyCost split the ≈700 cycles of handler compute
	// around the array access so a local hit totals ≈1.7 Kcycles of
	// node residence, matching Figure 2(c)'s P10.
	ParseCost sim.Time
	ReplyCost sim.Time

	ReqBytes  int
	RespBytes int

	// WriteFrac is the fraction of requests that store instead of load
	// (0 = the paper's read-only microbenchmark). Writes dirty pages, so
	// a non-zero fraction exercises the write-back and dirty-eviction
	// machinery under load. Stores are idempotent — they re-write the
	// seeded value — so the Mismatches oracle stays valid alongside them.
	WriteFrac float64

	// Dist overrides the index distribution (nil = uniform, the paper's
	// microbenchmark). A skewed distribution (e.g. *Zipfian) concentrates
	// faults on the nodes holding the hot pages — the imbalance the
	// migration subsystem rebalances. The uniform draw is only replaced
	// when Dist is set, so nil runs consume the identical RNG stream as
	// builds without this field — goldens stay byte-for-byte.
	Dist KeyDist

	// Mismatches counts responses whose value did not match the seeded
	// expectation — data-plane corruption, asserted zero by tests.
	Mismatches stats.Counter
}

// ArrayMsg is the one message record of a request: Index and Put going
// in — load the value at the index, or store the seeded value back
// (idempotent, so reads stay verifiable) — and Value coming back.
type ArrayMsg struct {
	Index int64
	Put   bool
	Value uint64
}

// arraySeed computes the deterministic value stored at index i.
func arraySeed(i int64) uint64 { return uint64(i)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D }

// NewArrayApp allocates a sizeBytes array of 8-byte values in remote
// memory and seeds it. sizeBytes must be page-aligned.
func NewArrayApp(mgr *paging.Manager, node memnode.Allocator, sizeBytes int64) *ArrayApp {
	a := &ArrayApp{
		mgr:       mgr,
		space:     mgr.NewSpace("array", node.MustAlloc("array", sizeBytes)),
		entries:   sizeBytes / 8,
		ParseCost: 250,
		ReplyCost: 450,
		ReqBytes:  64,
		RespBytes: 64,
	}
	// Seed the backing store through its set-up view (not simulated).
	// This runs once per operating point — a sweep re-seeds it dozens
	// of times — and with the byte-at-a-time loop it was the single
	// hottest function in a short sweep's CPU profile, ahead of the
	// event loop. One little-endian word store per entry writes the
	// identical bytes at a fraction of the cost.
	data := a.space.SetupBytes()
	for i := int64(0); i < a.entries; i++ {
		binary.LittleEndian.PutUint64(data[i*8:], arraySeed(i))
	}
	return a
}

// WarmCache preloads pages until the local pool reaches its steady-state
// occupancy, so measurements start from the paper's "local cache holds
// X % of the working set" condition rather than from cold.
func (a *ArrayApp) WarmCache() { a.mgr.WarmSpaces(a.space.Size(), a.space) }

// Name implements App.
func (a *ArrayApp) Name() string { return "array-indirection" }

// CheckSkew reports whether s is a key-skew exponent an app takes: 0
// (the native distribution) or a finite exponent above 1. math/rand's
// Zipf generator rejects exponents at or below 1, and never returns at
// an infinite one; the negated comparison rejects NaN too.
func CheckSkew(s float64) error {
	if s != 0 && !(s > 1 && s <= math.MaxFloat64) {
		return fmt.Errorf("-skew must be a finite exponent > 1 (or 0 for the native distribution), got %v", s)
	}
	return nil
}

// SetSkew installs a Zipfian index distribution with exponent s over
// the full array (s = 0 restores the uniform draw); it panics with
// CheckSkew's error on an s CheckSkew rejects. It exists so
// harnesses can apply a CLI-level skew knob to any app that supports
// one without knowing the app's key-space size.
func (a *ArrayApp) SetSkew(s float64) {
	if err := CheckSkew(s); err != nil {
		panic("workload: " + err.Error())
	}
	a.Dist = nil
	if s != 0 {
		a.Dist = &Zipfian{Keys: a.entries, S: s}
	}
}

// NextRequest implements App: a random index (uniform, or Dist when
// set), read or (with probability WriteFrac) written. The write draw is
// only taken when WriteFrac > 0, so read-only runs consume the
// identical RNG stream as builds without the write path — goldens stay
// byte-for-byte.
func (a *ArrayApp) NextRequest(rng *sim.RNG, reuse any) (any, int) {
	var idx int64
	if a.Dist != nil {
		idx = a.Dist.Next(rng)
		if idx >= a.entries {
			idx = a.entries - 1
		}
	} else {
		idx = rng.Int63n(a.entries)
	}
	m := Record[ArrayMsg](reuse)
	*m = ArrayMsg{Index: idx, Put: a.WriteFrac > 0 && rng.Bool(a.WriteFrac)}
	return m, a.ReqBytes
}

// arrayStepper is ArrayApp's request handler: parse, a probe, the array
// access, reply.
type arrayStepper struct{ a *ArrayApp }

// Array step phases (StepFrame.PC values).
const (
	arrayStepParse = iota
	arrayStepProbe
	arrayStepAccess
	arrayStepReply
)

// StepHandler implements App.
func (a *ArrayApp) StepHandler() StepHandler { return arrayStepper{a} }

// Begin implements StepHandler.
func (arrayStepper) Begin(f *StepFrame, payload any) { f.PC = arrayStepParse }

// Abort implements StepHandler: the frame refers to nothing.
func (arrayStepper) Abort(*StepFrame, error) {}

// Step implements StepHandler: parse charge → probe → array access (the
// only fault point) → reply, in the request's record.
func (h arrayStepper) Step(ctx StepCtx, f *StepFrame, payload any) (any, int, sim.Time, StepStatus) {
	a := h.a
	switch f.PC {
	case arrayStepParse:
		f.PC = arrayStepProbe
		return nil, 0, a.ParseCost, StepCompute
	case arrayStepProbe:
		f.PC = arrayStepAccess
		return nil, 0, 0, StepProbe
	case arrayStepAccess:
		m := payload.(*ArrayMsg)
		var p Page
		if !p.Open(ctx, a.space, m.Index*8) {
			return nil, 0, 0, StepFault
		}
		if m.Put {
			m.Value = arraySeed(m.Index)
			p.SetU64(0, m.Value)
		} else if m.Value = p.U64(0); m.Value != arraySeed(m.Index) {
			a.Mismatches.Inc()
		}
		f.PC = arrayStepReply
		return nil, 0, a.ReplyCost, StepCompute
	case arrayStepReply:
		return payload, a.RespBytes, 0, StepDone
	}
	panic("workload: corrupt array step frame")
}
