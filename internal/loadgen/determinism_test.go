package loadgen

import (
	"hash/fnv"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// startProcReference is the retired goroutine-backed arrival loop, kept
// verbatim as a reference implementation: the shipped task-tier
// generator must produce a byte-identical packet stream.
func startProcReference(env *sim.Env, net *ethernet.Net, app workload.App, rateRPS float64, warmup, end sim.Time) *Gen {
	g := &Gen{
		warmup: warmup, end: end,
		E2E:     stats.NewHistogram(),
		ByClass: make(map[string]*stats.Histogram),
	}
	net.OnDeliver = g.onDeliver
	g.SendFn = net.SendToNode
	interval := sim.Time(float64(sim.CyclesPerSec) / rateRPS)
	env.Go("loadgen", func(p *sim.Proc) {
		rng := env.Rand()
		for {
			p.Sleep(rng.Exp(interval))
			if p.Now() >= end {
				return
			}
			payload, reqBytes := app.NextRequest(rng, nil)
			g.nextID++
			pkt := &ethernet.Packet{
				ID:      g.nextID,
				Payload: payload,
				Size:    reqBytes,
				TxTime:  p.Now(),
			}
			if g.Classifier != nil {
				pkt.Class = g.Classifier(payload)
			}
			g.Sent.Inc()
			g.SendFn(pkt)
		}
	})
	return g
}

// TestTaskMatchesProcReference runs the short echo experiment twice —
// once on the shipped tier-1 task generator, once on the retired proc
// loop — and requires identical output: same sent/delivered counts and
// a bit-identical digest over every delivered packet's (ID, TxTime,
// RxTime). The task migration must not move a single event.
func TestTaskMatchesProcReference(t *testing.T) {
	run := func(ref bool) (sent, delivered int64, sum uint64) {
		env := sim.NewEnv(3)
		net := ethernet.New(env, ethernet.DefaultConfig())
		echoNode(env, net)
		start := Start
		if ref {
			start = startProcReference
		}
		g := start(env, net, echoApp{}, 150_000, sim.Millis(1), sim.Millis(30))
		h := fnv.New64a()
		var buf [24]byte
		prev := net.OnDeliver
		net.OnDeliver = func(pkt *ethernet.Packet) {
			put64(buf[0:], pkt.ID)
			put64(buf[8:], uint64(pkt.TxTime))
			put64(buf[16:], uint64(pkt.RxTime))
			h.Write(buf[:])
			prev(pkt)
		}
		env.Run(sim.Millis(35))
		return g.Sent.Value(), g.Delivered.Value(), h.Sum64()
	}

	taskSent, taskDel, taskSum := run(false)
	refSent, refDel, refSum := run(true)
	if taskSent == 0 || taskDel == 0 {
		t.Fatal("experiment sent nothing")
	}
	if taskSent != refSent || taskDel != refDel || taskSum != refSum {
		t.Fatalf("task generator diverged from proc reference: sent %d/%d delivered %d/%d digest %x/%x",
			taskSent, refSent, taskDel, refDel, taskSum, refSum)
	}
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
