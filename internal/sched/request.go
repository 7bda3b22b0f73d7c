package sched

import (
	"repro/internal/ethernet"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Request is the unithread (§3.2, Figure 4): the one record a networked
// request is on the compute node, from admission to the later of its last
// segment's close and its TX completion. It holds the payload (Pkt), the
// 80-byte context (frame) and — nothing native needing a stack — the
// bookkeeping of whatever the request waits for; it is the
// workload.StepCtx its handler sees (flat.go), and it carries the phase
// timestamps and accumulators the paper's latency breakdowns
// (Figures 2(c) and 7(c)) are built from. Records recycle through
// Scheduler.freeReqs.
type Request struct {
	// Pkt stays valid through OnComplete in either TX mode, though under
	// SyncTx the generator has taken delivery by then (ethernet.Owner).
	Pkt *ethernet.Packet

	// Arrive is when the request entered the RX ring; Dispatched when the
	// dispatcher assigned it to a worker; Started when it first ran on a
	// core; Finished when the response was posted.
	Arrive     sim.Time
	Dispatched sim.Time
	Started    sim.Time
	Finished   sim.Time

	// QueueWait is total time spent waiting for a core: initial dispatch
	// wait plus any re-queue waits after preemption.
	QueueWait sim.Time
	// RDMAWait is time blocked on this request's own page fetches
	// (whether spent spinning or yielded away).
	RDMAWait sim.Time
	// BusyWait is the portion of RDMAWait (plus synchronous TX waiting)
	// during which the request held its core spinning — zero under the
	// yield policy, which is the point of the paper.
	BusyWait sim.Time
	// CPU is application + handler compute charged on a core.
	CPU sim.Time

	Faults      int
	Preemptions int

	// Failed marks a request aborted because a demand fetch exhausted
	// its retry budget; its response is a small error reply and it must
	// not count toward goodput.
	Failed bool

	sched  *Scheduler
	worker *Worker // the core carrying it, or that last did
	frame  workload.StepFrame

	runStart  sim.Time // when last placed on a core (preemption quantum)
	noPreempt int      // >0 inside application critical sections

	// Fault in progress: the faulting page, whether the next
	// TryRequestPage round still counts as the demand access, whether the
	// completion callback has run (busy-wait's inner loop), and the
	// completion error (if the fetch was abandoned).
	faultSp     *paging.Space
	faultVpn    int64
	faultDemand bool
	fired       bool
	ferr        error

	// waitStart is when the fault, or the Block spin, in progress began.
	waitStart sim.Time
	// woken is set by the Block wake.
	woken bool
	// left is the compute still to charge under IPI slicing.
	left sim.Time
	// queuedAt is when the request last went into the central queue — on
	// arrival, then each time its quantum ended — and queued marks that
	// its wait since is not yet in QueueWait; resume is where the request
	// continues once a core picks it up (flatBegin at first, then
	// wherever it yielded or was preempted).
	queued   bool
	queuedAt sim.Time
	resume   int

	// retry marks that the next matching TryPage is the re-probe after a
	// completed fault (touch-only accounting; see Space.TryPage).
	retry bool

	state int  // flatFresh … flatQueued (oracle)
	done  bool // set at flatFinish; flatClosed retires after the span

	// The record has two owners — the worker, until its last segment
	// closes, and the response's TX completion, until it is reaped (by the
	// dispatcher under delegated TX, Figure 6; by the worker itself under
	// SyncTx) — and whichever lets go last recycles it. slot is the
	// completion's half: the request still holds its unithread.Pool slot.
	// retired is the worker's: it has closed the request.
	slot    bool
	retired bool

	pktUse uint32 // Pkt.Use() at admission, for Packet.Held

	// onReadyFn and wakeFn are the bound fetch-completion and Block-wake
	// callbacks, created once per record so the wait paths stay
	// allocation-free across recycles.
	onReadyFn func(error)
	wakeFn    func()
}

// NodeLatency is the compute-node residence time: RX-ring arrival to
// response post, the quantity Figure 2(c) decomposes.
func (r *Request) NodeLatency() sim.Time { return r.Finished - r.Arrive }
