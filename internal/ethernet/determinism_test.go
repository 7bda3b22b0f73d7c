package ethernet

import (
	"hash/fnv"
	"testing"

	"repro/internal/rdma"
	"repro/internal/sim"
)

// sendToNodeRef and txSendRef are the retired per-packet-closure send
// paths, kept as references: the pooled netOp implementation
// must schedule the same actions at the same times in the same order.

func sendToNodeRef(n *Net, pkt *Packet) {
	start := n.env.Now()
	if n.toNodeFreeAt > start {
		start = n.toNodeFreeAt
	}
	xfer := sim.Time(float64(pkt.Size+n.cfg.WireOverhead) * n.cfg.CyclesPerByte)
	done := start + xfer
	n.toNodeFreeAt = done
	arrive := done + n.cfg.Flight
	n.env.At(arrive, func() {
		if n.rxLen >= n.cfg.RxRing {
			n.Drops.Inc()
			return
		}
		pkt.ArriveNode = arrive
		n.rx[(n.rxHead+n.rxLen)%len(n.rx)] = pkt
		n.rxLen++
		n.RxCount.Inc()
		if n.RxNotify != nil {
			n.RxNotify()
		}
	})
}

func txSendRef(t *TxQueue, pkt *Packet) {
	n := t.net
	start := n.env.Now()
	if n.fromNodeFreeAt > start {
		start = n.fromNodeFreeAt
	}
	xfer := sim.Time(float64(pkt.Size+n.cfg.WireOverhead) * n.cfg.CyclesPerByte)
	done := start + xfer
	n.fromNodeFreeAt = done
	n.txBusy.AddInterval(int64(start), int64(done))
	n.TxCount.Inc()
	deliver := done + n.cfg.Flight
	n.env.At(deliver, func() {
		pkt.RxTime = deliver
		if n.OnDeliver != nil {
			n.OnDeliver(pkt)
		}
	})
	complete := done + n.cfg.TxCompletionLatency
	n.env.At(complete, func() {
		t.cq.Inject(rdma.Completion{Kind: rdma.OpWrite, Bytes: pkt.Size, Cookie: pkt, At: complete})
	})
}

// TestPooledOpsMatchClosureReference runs an echo workload — bursty
// arrivals into a tiny RX ring polled by a slow echo loop, so the drop
// path fires too — once on the pooled netOp paths and once on the
// retired closure paths, and requires a bit-identical digest of every
// RX arrival, generator delivery, and TX completion.
func TestPooledOpsMatchClosureReference(t *testing.T) {
	run := func(ref bool) (drops, rx, tx int64, sum uint64) {
		env := sim.NewEnv(9)
		cfg := DefaultConfig()
		cfg.RxRing = 4
		net := New(env, cfg)
		h := fnv.New64a()
		mix := func(tag byte, a, b uint64) {
			var buf [17]byte
			buf[0] = tag
			for i := 0; i < 8; i++ {
				buf[1+i] = byte(a >> (8 * i))
				buf[9+i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
		cq := rdma.NewCQ("echo")
		cq.Notify = func() {
			for _, c := range cq.Poll(64) {
				mix('c', uint64(c.At), uint64(c.Bytes))
			}
		}
		txq := net.CreateTxQueue("echo", cq)
		gate := sim.NewGate(env)
		net.RxNotify = gate.Wake
		net.OnDeliver = func(pkt *Packet) { mix('d', uint64(pkt.RxTime), pkt.ID) }
		var buf [4]*Packet
		var pkts []*Packet
		var echo *sim.Task
		echo = sim.NewTask(env, "echo", func() {
			for {
				if len(pkts) > 0 { // the head packet's service time has passed
					if ref {
						txSendRef(txq, pkts[0])
					} else {
						txq.Send(pkts[0], pkts[0])
					}
					pkts = pkts[1:]
				}
				if len(pkts) == 0 {
					if pkts = buf[:net.PollRxInto(buf[:])]; len(pkts) == 0 {
						if !gate.Arm(echo) {
							return
						}
						continue
					}
				}
				mix('r', uint64(pkts[0].ArriveNode), pkts[0].ID)
				if !echo.Sleep(2000) { // slow consumer: lets bursts overflow the ring
					return
				}
			}
		})
		echo.FireAt(env.Now())
		rng := env.Rand()
		var id uint64
		var burst func()
		burst = func() {
			for i := 0; i < 2+rng.Intn(24); i++ {
				id++
				pkt := &Packet{ID: id, Size: 64 + rng.Intn(1400), TxTime: env.Now()}
				if ref {
					sendToNodeRef(net, pkt)
				} else {
					net.SendToNode(pkt)
				}
			}
			if id < 400 {
				env.After(sim.Time(rng.Intn(4000)), burst)
			}
		}
		env.After(0, burst)
		env.Run(sim.Millis(10))
		return net.Drops.Value(), net.RxCount.Value(), net.TxCount.Value(), h.Sum64()
	}

	drops, rx, tx, sum := run(false)
	rDrops, rRx, rTx, rSum := run(true)
	if drops == 0 {
		t.Fatal("workload never overflowed the RX ring; drop path untested")
	}
	if rx == 0 || tx == 0 {
		t.Fatal("workload moved no packets")
	}
	if drops != rDrops || rx != rRx || tx != rTx || sum != rSum {
		t.Fatalf("pooled ops diverged from closure reference: drops %d/%d rx %d/%d tx %d/%d digest %x/%x",
			drops, rDrops, rx, rRx, tx, rTx, sum, rSum)
	}
}
