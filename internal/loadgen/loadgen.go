// Package loadgen is the open-loop load generator of §4: Poisson
// arrivals at a configured offered load, kernel-bypass send/receive with
// hardware timestamps, and end-to-end latency measured as RX − TX at the
// generator — mutilate-style, as in the paper.
package loadgen

import (
	"repro/internal/ethernet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Gen drives one workload against a compute node and records e2e
// latency and throughput over a measurement window.
type Gen struct {
	warmup sim.Time // measurement window start
	end    sim.Time // last send time

	// E2E records end-to-end latency (cycles) of requests sent within
	// the measurement window. ByClass, if enabled with Classifier,
	// records per-request-class latency (e.g., GET vs SCAN).
	E2E        *stats.Histogram
	Classifier func(payload any) string
	ByClass    map[string]*stats.Histogram

	Sent      stats.Counter
	Delivered stats.Counter // responses received within the window

	// SendFn transmits a request; it defaults to the raw (UDP-style)
	// path and can be pointed at a transport.Client's Send for reliable
	// delivery.
	SendFn func(*ethernet.Packet)

	nextID uint64
	pkts   ethernet.PacketPool // requests are sent from here; see ethernet.Owner
}

// Start launches an open-loop generator sending rateRPS requests per
// second from time 0 until end. Latency is recorded for requests sent at
// or after warmup; Delivered counts responses received in [warmup, end].
func Start(env *sim.Env, net *ethernet.Net, app workload.App, rateRPS float64, warmup, end sim.Time) *Gen {
	g := &Gen{
		warmup: warmup, end: end,
		E2E:     stats.NewHistogram(),
		ByClass: make(map[string]*stats.Histogram),
	}
	net.OnDeliver = g.onDeliver
	g.SendFn = net.SendToNode
	interval := sim.Time(float64(sim.CyclesPerSec) / rateRPS)
	// The arrival loop never blocks mid-step — each activation draws the
	// next inter-arrival gap and sends one request — so it runs as a
	// tier-1 task: one wheel event per arrival, no goroutine. The firing
	// sequence (start event, then one self-rescheduled event per arrival,
	// each drawing Exp before the request's own RNG use) matches the
	// retired proc loop push for push, keeping goldens byte-identical.
	rng := env.Rand()
	var t *sim.Task
	primed := false
	t = sim.NewTask(env, "loadgen", func() {
		if !primed {
			primed = true
			t.FireAfter(rng.Exp(interval))
			return
		}
		if env.Now() >= end {
			return
		}
		pkt := g.pkts.Get()
		payload, reqBytes := app.NextRequest(rng, pkt.Payload)
		g.nextID++
		pkt.ID, pkt.Payload, pkt.Size, pkt.TxTime, pkt.Class = g.nextID, payload, reqBytes, env.Now(), ""
		if g.Classifier != nil {
			pkt.Class = g.Classifier(payload)
		}
		g.Sent.Inc()
		g.SendFn(pkt)
		t.FireAfter(rng.Exp(interval))
	})
	t.FireAfter(0)
	return g
}

// Deliver records a response arrival; exported so a transport layer
// interposed on the network path can forward acknowledged responses.
// It never gives up the generator's half of the packet: a
// transport.Client retransmits the same *Packet, which can then sit in
// the RX ring twice, and its timers read the packet after delivery, so no
// delivery is known to be its last use. Behind a transport packets go to
// the collector and every send is a pool miss.
func (g *Gen) Deliver(pkt *ethernet.Packet) {
	if pkt.RxTime >= g.warmup && pkt.RxTime < g.end {
		g.Delivered.Inc()
	}
	if pkt.TxTime < g.warmup {
		return
	}
	lat := int64(pkt.RxTime - pkt.TxTime)
	g.E2E.Record(lat)
	if pkt.Class != "" {
		h := g.ByClass[pkt.Class]
		if h == nil {
			h = stats.NewHistogram()
			g.ByClass[pkt.Class] = h
		}
		h.Record(lat)
	}
}

// onDeliver is the raw path's delivery: record, then release.
func (g *Gen) onDeliver(pkt *ethernet.Packet) {
	g.Deliver(pkt)
	pkt.Release(ethernet.Sender)
}

// Throughput returns achieved requests/second over the measurement
// window, evaluated at time now (normally the end of the run).
func (g *Gen) Throughput(now sim.Time) float64 {
	window := now
	if window > g.end {
		window = g.end
	}
	window -= g.warmup
	if window <= 0 {
		return 0
	}
	return float64(g.Delivered.Value()) / window.Seconds()
}
