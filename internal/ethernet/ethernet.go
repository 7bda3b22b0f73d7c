// Package ethernet models the user-space Raw Ethernet path between the
// load generator and the compute node: a full-duplex 100 GbE link with
// serialization delay, a bounded RX ring (overflow = dropped requests,
// the paper's open-loop drop behaviour), hardware TX/RX timestamps, and
// TX completion delivery into an rdma.CQ.
//
// Reusing rdma.CQ for TX completions mirrors the paper's implementation
// note that NVIDIA's Raw Ethernet feature shares the RDMA stack's
// CQ/QP data structures — and it is exactly what makes polling delegation
// (steering a worker's TX completions into the dispatcher's CQ) a
// one-line configuration.
package ethernet

import (
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/stats"
)

// Config is the client-link cost model.
type Config struct {
	// CyclesPerByte is the serialization delay of the client link.
	CyclesPerByte float64
	// WireOverhead is per-packet framing overhead in bytes (Ethernet +
	// IP + UDP headers, preamble, FCS).
	WireOverhead int
	// Flight is the one-way propagation + NIC + switch latency.
	Flight sim.Time
	// RxRing bounds the compute node's receive ring; arrivals beyond it
	// are dropped.
	RxRing int
	// TxCompletionLatency is the delay from the last byte leaving the
	// node until the TX completion entry is visible in the CQ.
	TxCompletionLatency sim.Time
}

// DefaultConfig returns the calibrated 100 GbE client-link model.
func DefaultConfig() Config {
	return Config{
		CyclesPerByte:       0.22,
		WireOverhead:        60,
		Flight:              sim.Micros(1.05),
		RxRing:              4096,
		TxCompletionLatency: sim.Micros(2.6),
	}
}

// Packet is a request or response frame. Payload carries the decoded
// application message; Size is the wire size used for timing.
type Packet struct {
	ID      uint64
	Payload any
	Size    int

	// TxTime and RxTime are the generator-side hardware timestamps used
	// to compute end-to-end latency, as in the paper's load generator.
	TxTime sim.Time
	RxTime sim.Time

	// ArriveNode is when the request entered the compute node's RX ring.
	ArriveNode sim.Time

	// Class optionally labels the request kind (e.g. "GET" vs "SCAN")
	// for per-class latency reporting. Stamped by the load generator at
	// send time, so it survives the payload being replaced by the
	// response.
	Class string

	// pool is the free list the packet came from (nil for a packet its
	// sender built itself: Release ignores it), released says which of
	// its owners are done with this use, and use counts the uses.
	pool     *PacketPool
	released Owner
	use      uint32
}

// Owner names one of the two holders of a pooled packet. Which finishes
// first is the configuration's to decide — under SyncTx the response is
// delivered (1.05 µs) before the worker's TX completion (2.6 µs) lets it
// retire, delegated TX retires first — so neither can recycle alone: each
// releases its half and the later one puts the packet back, the rule
// sched.Request follows between worker and dispatcher.
type Owner uint8

const (
	Sender     Owner = 1 << iota // done once it has taken delivery of the response
	Node                         // done once it has retired the request
	onFreeList = Sender | Node
)

// PacketPool is a sender's free list of packets. A packet that one of
// its owners never releases — dropped at the RX ring or the central
// queue, rejected at admission, its response lost — is left to the
// collector: a leak is a pool miss, only an early or double release is a
// bug (oracle ethernet/packet-lifetime).
type PacketPool struct{ free []*Packet }

// Get takes a packet off the free list, or builds one. A recycled packet
// still carries the Payload of its last use — the message record the
// sender refills in place of boxing a new one.
func (p *PacketPool) Get() *Packet {
	n := len(p.free)
	if n == 0 {
		return &Packet{pool: p}
	}
	pkt := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	pkt.released = 0
	pkt.use++
	return pkt
}

// Release gives up by's half of a pooled packet; the second release
// recycles it. The caller must not touch the packet afterwards.
func (pkt *Packet) Release(by Owner) {
	if pkt.pool == nil {
		return
	}
	if simcheck.On() {
		pkt.check(pkt.use, by, "released twice")
	}
	pkt.released |= by
	if pkt.released == onFreeList {
		pkt.pool.free = append(pkt.pool.free, pkt)
	}
}

// Use returns the packet's use count, for a holder to hand back to Held.
func (pkt *Packet) Use() uint32 { return pkt.use }

// Held is the ethernet/packet-lifetime oracle: whoever sends, delivers
// or reads the packet must find it off the free list and in the use
// (see Use) it took it in — and an owner releasing it, not released by
// that owner already.
func (pkt *Packet) Held(use uint32, event string) {
	if simcheck.On() {
		pkt.check(use, 0, event)
	}
}

func (pkt *Packet) check(held uint32, by Owner, event string) {
	if pkt.released == onFreeList || pkt.released&by != 0 || pkt.use != held {
		simcheck.Fail(simcheck.New("ethernet/packet-lifetime", "packet %s outside its lifetime", event).
			With("id", pkt.ID).With("use", pkt.use).With("held", held).With("released", pkt.released))
	}
}

// Net is the client-facing network of the compute node.
type Net struct {
	env *sim.Env
	cfg Config

	toNodeFreeAt   sim.Time
	fromNodeFreeAt sim.Time

	// rx is the RX ring: RxRing slots, rxLen of them occupied from rxHead
	// on. A polled slot is cleared, so the ring never keeps a consumed
	// packet — by then possibly recycled and in flight again — reachable.
	rx     []*Packet
	rxHead int
	rxLen  int

	// RxNotify, if set, is invoked when a packet lands in the RX ring
	// (used to wake the dispatcher's gate).
	RxNotify func()

	// OnDeliver, if set, is invoked when a response packet reaches the
	// load generator (with RxTime stamped).
	OnDeliver func(*Packet)

	Drops   stats.Counter // RX-ring overflow drops
	RxCount stats.Counter
	TxCount stats.Counter

	txBusy stats.WindowedBusy

	freeOps *netOp // recycled in-flight frame records
}

// netOp is one in-flight wire action: a request arriving at the RX ring,
// a response reaching the generator, or a TX completion landing in a CQ.
// The records are pooled per Net and carry a callback closure built once
// at allocation, so the steady-state send paths schedule wheel events
// with zero allocations — one event per action, at the same times and in
// the same order as the per-packet closures they replace.
type netOp struct {
	n      *Net
	txq    *TxQueue
	pkt    *Packet // opRxArrive, opDeliver
	cookie any     // opTxComplete, with the frame's size in bytes
	bytes  int
	at     sim.Time
	kind   uint8
	run    func()
	next   *netOp
}

const (
	opRxArrive = uint8(iota)
	opDeliver
	opTxComplete
)

func (n *Net) getOp() *netOp {
	op := n.freeOps
	if op == nil {
		op = &netOp{n: n}
		op.run = op.fire
		return op
	}
	n.freeOps = op.next
	op.next = nil
	return op
}

// fire performs the op's action. The record is released before the
// action runs — handlers (dispatcher wake-ups, the generator's response
// accounting) may send more frames, and those sends may reuse it.
func (op *netOp) fire() {
	n, txq, pkt, cookie, bytes, at, kind := op.n, op.txq, op.pkt, op.cookie, op.bytes, op.at, op.kind
	op.txq, op.pkt, op.cookie = nil, nil, nil
	op.next = n.freeOps
	n.freeOps = op
	switch kind {
	case opRxArrive:
		if n.rxLen >= len(n.rx) {
			n.Drops.Inc()
			return
		}
		pkt.ArriveNode = at
		tail := n.rxHead + n.rxLen
		if tail >= len(n.rx) {
			tail -= len(n.rx)
		}
		n.rx[tail] = pkt
		n.rxLen++
		n.RxCount.Inc()
		if n.RxNotify != nil {
			n.RxNotify()
		}
	case opDeliver:
		pkt.Held(pkt.use, "delivered")
		pkt.RxTime = at
		if n.OnDeliver != nil {
			n.OnDeliver(pkt)
		}
	case opTxComplete:
		txq.cq.Inject(rdma.Completion{Kind: rdma.OpWrite, Bytes: bytes, Cookie: cookie, At: at})
	}
}

// New returns a client network bound to env.
func New(env *sim.Env, cfg Config) *Net {
	return &Net{env: env, cfg: cfg, rx: make([]*Packet, cfg.RxRing)}
}

// StartWindow begins the utilization measurement window.
func (n *Net) StartWindow() { n.txBusy.StartWindow(int64(n.env.Now())) }

// TxUtilization reports the response-direction utilization of the client
// link over the current window.
func (n *Net) TxUtilization() float64 { return n.txBusy.Utilization(int64(n.env.Now())) }

// SendToNode transmits a request frame from the load generator to the
// compute node. The frame is serialized on the client→node direction and
// lands in the RX ring (or is dropped if the ring is full).
func (n *Net) SendToNode(pkt *Packet) {
	_, done := n.send(pkt, &n.toNodeFreeAt)
	arrive := done + n.cfg.Flight
	op := n.getOp()
	op.kind, op.pkt, op.at = opRxArrive, pkt, arrive
	n.env.At(arrive, op.run)
}

// send serializes pkt's frame on the link direction whose busy horizon
// is *freeAt, from now or once the previous frame has left, and returns
// when its first and last bytes leave.
func (n *Net) send(pkt *Packet, freeAt *sim.Time) (start, done sim.Time) {
	pkt.Held(pkt.use, "sent")
	start = max(n.env.Now(), *freeAt)
	done = start + sim.Time(float64(pkt.Size+n.cfg.WireOverhead)*n.cfg.CyclesPerByte)
	*freeAt = done
	return start, done
}

// PollRxInto removes up to len(dst) packets from the RX ring into dst
// and returns the count. They are copied out — the dispatcher blocks
// (charging poll CPU) before consuming, and concurrent arrivals must not
// clobber its batch — into caller-owned scratch, so the poll loop is
// allocation-free (dst[:n] must be consumed before the next call).
func (n *Net) PollRxInto(dst []*Packet) int {
	have := min(n.rxLen, len(dst))
	for i := range dst[:have] {
		dst[i], n.rx[n.rxHead] = n.rx[n.rxHead], nil
		if n.rxHead++; n.rxHead == len(n.rx) {
			n.rxHead = 0
		}
	}
	n.rxLen -= have
	return have
}

// TxQueue is a per-worker raw-Ethernet send queue. Its completions are
// delivered to the CQ chosen at creation time: the worker's own CQ for
// synchronous TX, or the dispatcher's CQ under polling delegation.
type TxQueue struct {
	net  *Net
	cq   *rdma.CQ
	name string
}

// CreateTxQueue returns a send queue whose completions go to cq.
func (n *Net) CreateTxQueue(name string, cq *rdma.CQ) *TxQueue {
	return &TxQueue{net: n, cq: cq, name: name}
}

// Send transmits a response frame to the load generator. The frame
// serializes on the node→client direction; the packet is delivered to the
// generator (OnDeliver) after the flight, and a TX completion carrying
// cookie — the caller's record of the frame, not the packet, which both
// owners may be done with by then — is delivered to the queue's CQ.
func (t *TxQueue) Send(pkt *Packet, cookie any) {
	n := t.net
	start, done := n.send(pkt, &n.fromNodeFreeAt)
	n.txBusy.AddInterval(int64(start), int64(done))
	n.TxCount.Inc()

	deliver := done + n.cfg.Flight
	op := n.getOp()
	op.kind, op.pkt, op.at = opDeliver, pkt, deliver
	n.env.At(deliver, op.run)

	complete := done + n.cfg.TxCompletionLatency
	op = n.getOp()
	op.kind, op.txq, op.cookie, op.bytes, op.at = opTxComplete, t, cookie, pkt.Size, complete
	n.env.At(complete, op.run)
}
