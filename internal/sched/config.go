// Package sched implements the MD scheduler of §3.4: a single-queue
// dispatcher feeding per-core workers, unithreads as the per-request
// execution contexts, and the three policy axes that distinguish the
// paper's systems:
//
//   - WaitPolicy: what a page-fault handler does while the fetch is in
//     flight — busy-wait (DiLOS, Hermit) or yield (Adios, §3.3);
//   - DispatchPolicy: round-robin (Shinjuku/Concord baseline) or
//     PF-aware (Adios, Algorithm 1);
//   - TxPolicy: synchronous response transmission or polling delegation
//     to the dispatcher (Adios, Figure 6).
//
// Cooperative preemption (Concord-style probes with a 5 µs quantum) is a
// fourth switch, used by the DiLOS-P baseline.
package sched

import "repro/internal/sim"

// WaitPolicy selects the page-fault waiting mechanism.
type WaitPolicy int

const (
	// BusyWait spins the core until the fetch completes (DiLOS, Hermit,
	// Fastswap — the systems §2 analyses).
	BusyWait WaitPolicy = iota
	// Yield switches back to the worker so other unithreads run during
	// the fetch (Adios).
	Yield
)

// DispatchPolicy selects how the dispatcher orders idle workers.
type DispatchPolicy int

const (
	// RoundRobin cycles through idle workers (Shinjuku, Concord).
	RoundRobin DispatchPolicy = iota
	// PFAware prefers workers with the fewest outstanding page fetches
	// on their QP (Algorithm 1), smoothing temporary fault imbalance.
	PFAware
	// WorkStealing distributes requests round-robin to per-worker queues
	// and lets empty workers steal from peers — the ZygOS-style
	// "approximated centralized FCFS" the paper considers and rejects
	// for scan costs (§3.4); the abl-steal ablation measures it.
	WorkStealing
)

// TxPolicy selects how response-transmission completions are handled.
type TxPolicy int

const (
	// SyncTx makes the sender busy-wait for its TX completion.
	SyncTx TxPolicy = iota
	// DelegatedTx steers TX completions to the dispatcher's CQ, which
	// recycles buffers while polling for arrivals anyway (Figure 6).
	DelegatedTx
)

// Costs is the scheduler-side CPU cost model, in cycles. Values are
// calibrated against the paper's own measurements: a local-hit request
// handles in ≈1.7 Kcycles end to end, a unithread switch costs 40
// cycles, a ucontext-style switch 191 (Table 1).
type Costs struct {
	UnithreadSwitch sim.Time // unithread context switch (Table 1: 40)
	UnithreadSpawn  sim.Time // buffer setup + context init for a new request
	Dispatch        sim.Time // dispatcher work per assigned request
	RxPollBatch     sim.Time // dispatcher RX-ring poll (per batch)
	RxPerPacket     sim.Time // dispatcher per-received-packet handling
	TxCompletion    sim.Time // dispatcher per delegated TX completion
	TxPost          sim.Time // building and posting a response
	CQPoll          sim.Time // polling a completion queue (per batch)

	PreemptProbe      sim.Time // one Concord probe check
	PreemptSwitch     sim.Time // full preemption switch (ucontext-class)
	PreemptPerRequest sim.Time // DiLOS-P fixed per-request timer/probe overhead
	IPICost           sim.Time // IPI delivery + interrupt entry/exit (Shinjuku-style)

	StealProbe    sim.Time // scanning one peer queue for work to steal
	StealTransfer sim.Time // moving a stolen request across cores

	KernelFaultExtra sim.Time // Hermit: kernel fault entry/exit beyond unikernel
	KernelNetExtra   sim.Time // Hermit: kernel network stack per request
	// JitterProb/JitterMean model OS scheduling noise on a kernel-based
	// system: with probability JitterProb a request's core is stolen for
	// an Exp(JitterMean) interval.
	JitterProb float64
	JitterMean sim.Time
}

// DefaultCosts returns the calibrated unikernel cost model (Hermit
// extras are zero; the core preset enables them).
func DefaultCosts() Costs {
	return Costs{
		UnithreadSwitch:   40,
		UnithreadSpawn:    150,
		Dispatch:          250,
		RxPollBatch:       100,
		RxPerPacket:       100,
		TxCompletion:      100,
		TxPost:            250,
		CQPoll:            80,
		PreemptProbe:      6,
		PreemptSwitch:     400,
		PreemptPerRequest: 300,
		IPICost:           4000,
		StealProbe:        60,
		StealTransfer:     150,
	}
}

// Config assembles the scheduler.
type Config struct {
	Workers  int
	Wait     WaitPolicy
	Dispatch DispatchPolicy
	Tx       TxPolicy

	// Preempt enables Concord-style cooperative preemption with the
	// given quantum (the paper and Shinjuku default to 5 µs).
	Preempt bool
	Quantum sim.Time
	// PreemptIPI switches preemption from compiler probes to
	// Shinjuku-style inter-processor interrupts: compute can be
	// interrupted anywhere (no probes needed) but each preemption pays
	// Costs.IPICost. The paper found probe-based cooperation superior
	// and used it for DiLOS-P (§5); abl-ipi reproduces the comparison.
	PreemptIPI bool

	// Dispatchers splits the single-queue front end across several
	// dispatcher cores, each owning a partition of the workers — the
	// scalability direction §6 leaves as future work (abl-workers).
	// New panics outside [1, Workers].
	Dispatchers int

	// CentralQueueCap bounds the dispatcher's pending-request queue; new
	// requests beyond it are dropped (open-loop overload behaviour).
	CentralQueueCap int

	Costs Costs
}

// DefaultConfig returns the paper's experimental setup: eight workers,
// one dispatcher (plus the paging reclaimer), 5 µs quantum if preemption
// is turned on.
func DefaultConfig() Config {
	return Config{
		Workers:         8,
		Wait:            Yield,
		Dispatch:        PFAware,
		Tx:              DelegatedTx,
		Quantum:         sim.Micros(5),
		Dispatchers:     1,
		CentralQueueCap: 8192,
		Costs:           DefaultCosts(),
	}
}
