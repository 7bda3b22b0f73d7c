// Package transport adds a reliable, connection-oriented request layer
// on top of the raw Ethernet path — the "TCP or other
// connection-oriented networking stacks" the paper leaves as future work
// (§6). It provides:
//
//   - a sliding send window (flow control): at most Window requests in
//     flight, the rest queue at the client;
//   - RPC-style acknowledgement: the response to a request acknowledges
//     it;
//   - timeout retransmission with bounded retries, so requests dropped
//     by the compute node's RX ring or shed at the central queue are
//     retried instead of lost;
//   - a node-side duplicate filter (Admit) giving at-most-once admission
//     despite retransmission.
//
// Under overload this converts the open-loop UDP behaviour (drops) into
// back-pressure plus retries — the abl-transport ablation measures the
// difference.
package transport

import (
	"repro/internal/ethernet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Config tunes the client.
type Config struct {
	// Window bounds in-flight (unacknowledged) requests.
	Window int
	// RTO is the retransmission timeout.
	RTO sim.Time
	// MaxRetries bounds retransmissions per request; beyond it the
	// request is reported lost to the application.
	MaxRetries int
}

// DefaultConfig returns a 256-deep window with a 200 µs RTO — loose
// enough to avoid spurious retransmits at the simulated RTTs, tight
// enough to recover quickly from RX-ring drops.
func DefaultConfig() Config {
	return Config{Window: 256, RTO: sim.Micros(200), MaxRetries: 5}
}

// entry tracks one in-flight request.
type entry struct {
	pkt     *ethernet.Packet
	retries int
	gen     int // invalidates stale timers
}

// Client is the generator-side endpoint.
type Client struct {
	env *sim.Env
	net *ethernet.Net
	cfg Config

	inflight map[uint64]*entry
	queue    []*ethernet.Packet

	// OnDeliver receives responses (after acknowledgement bookkeeping).
	OnDeliver func(*ethernet.Packet)
	// OnLost receives requests that exhausted their retries.
	OnLost func(*ethernet.Packet)

	Retransmits stats.Counter
	Lost        stats.Counter
	Queued      stats.Counter // sends deferred by a full window
}

// NewClient wires a client over net; it takes over net.OnDeliver.
func NewClient(env *sim.Env, net *ethernet.Net, cfg Config) *Client {
	c := &Client{env: env, net: net, cfg: cfg, inflight: make(map[uint64]*entry)}
	net.OnDeliver = c.handleResponse
	return c
}

// Send transmits a request reliably. The packet's ID is its sequence
// number and must be unique per connection.
func (c *Client) Send(pkt *ethernet.Packet) {
	if len(c.inflight) >= c.cfg.Window {
		c.queue = append(c.queue, pkt)
		c.Queued.Inc()
		return
	}
	c.transmit(pkt, 0)
}

// transmit sends (or resends) and arms the retransmission timer.
func (c *Client) transmit(pkt *ethernet.Packet, retries int) {
	e := c.inflight[pkt.ID]
	if e == nil {
		e = &entry{pkt: pkt}
		c.inflight[pkt.ID] = e
	}
	e.retries = retries
	e.gen++
	gen := e.gen
	c.net.SendToNode(pkt)
	c.env.After(c.cfg.RTO, func() { c.timeout(pkt.ID, gen) })
}

// timeout fires when a request's RTO expires; stale generations (the
// request was acked or already retransmitted) are ignored.
func (c *Client) timeout(seq uint64, gen int) {
	e := c.inflight[seq]
	if e == nil || e.gen != gen {
		return
	}
	if e.retries >= c.cfg.MaxRetries {
		delete(c.inflight, seq)
		c.Lost.Inc()
		if c.OnLost != nil {
			c.OnLost(e.pkt)
		}
		c.fill()
		return
	}
	c.Retransmits.Inc()
	c.transmit(e.pkt, e.retries+1)
}

// handleResponse acknowledges the request and releases window space.
func (c *Client) handleResponse(pkt *ethernet.Packet) {
	e := c.inflight[pkt.ID]
	if e == nil {
		return // duplicate response to a retransmitted request
	}
	delete(c.inflight, pkt.ID)
	if c.OnDeliver != nil {
		c.OnDeliver(pkt)
	}
	c.fill()
}

// fill moves queued requests into freed window slots.
func (c *Client) fill() {
	for len(c.queue) > 0 && len(c.inflight) < c.cfg.Window {
		pkt := c.queue[0]
		c.queue = c.queue[:copy(c.queue, c.queue[1:])]
		c.transmit(pkt, 0)
	}
}

// Dedup is the node-side at-most-once admission filter: it remembers a
// window of recently admitted IDs and rejects duplicates caused by
// retransmission racing a slow response or a request dropped after
// admission. It does not cache responses, so it suits deployments where
// responses are not lost (retransmissions triggered by RX-ring overflow
// or node-side shedding); under genuine response loss, use at-least-once
// admission with idempotent handlers instead.
type Dedup struct {
	window int
	seen   map[uint64]bool
	order  []uint64

	Duplicates stats.Counter
}

// NewDedup returns a filter remembering the last window admitted IDs.
func NewDedup(window int) *Dedup {
	return &Dedup{window: window, seen: make(map[uint64]bool, window)}
}

// Admit reports whether the packet is new; duplicates are rejected.
// Plug it into sched.Scheduler.Admit.
func (d *Dedup) Admit(pkt *ethernet.Packet) bool {
	if d.seen[pkt.ID] {
		d.Duplicates.Inc()
		return false
	}
	d.seen[pkt.ID] = true
	d.order = append(d.order, pkt.ID)
	if len(d.order) > d.window {
		delete(d.seen, d.order[0])
		d.order = d.order[:copy(d.order, d.order[1:])]
	}
	return true
}
