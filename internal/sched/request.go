package sched

import (
	"repro/internal/ethernet"
	"repro/internal/sim"
	"repro/internal/unithread"
)

// Request is the compute-node-side record of one networked request, with
// the phase timestamps and accumulators the paper's latency breakdowns
// (Figures 2(c) and 7(c)) are built from.
type Request struct {
	// Pkt stays valid through OnComplete in either TX mode, though under
	// SyncTx the generator has taken delivery by then (ethernet.Owner).
	Pkt *ethernet.Packet
	Buf *unithread.Buffer

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

	// retired marks that the request finished while the dispatcher
	// still owned the buffer (delegated TX): the TX-completion handler is
	// then the last owner and recycles the record.
	retired bool

	pktUse uint32 // Pkt.Use() at admission, for Packet.Held
}

// NodeLatency is the compute-node residence time: RX-ring arrival to
// response post, the quantity Figure 2(c) decomposes.
func (r *Request) NodeLatency() sim.Time { return r.Finished - r.Arrive }

// workItem is one entry of the dispatcher's central queue: either a new
// request or a preempted one awaiting a core.
type workItem struct {
	req     *Request
	resumed *flatCtx
}
