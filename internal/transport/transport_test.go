package transport

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// echoNode bounces packets back, optionally dropping the first N.
type echoNode struct {
	env   *sim.Env
	net   *ethernet.Net
	txq   *ethernet.TxQueue
	drop  int
	seen  int
	admit *Dedup
	delay sim.Time
	got   []uint64
}

func newEchoNode(env *sim.Env, net *ethernet.Net, drop int, dedup *Dedup) *echoNode {
	n := &echoNode{env: env, net: net, drop: drop, admit: dedup, delay: 500}
	n.txq = net.CreateTxQueue("echo", rdma.NewCQ("echo"))
	gate := sim.NewGate(env)
	net.RxNotify = gate.Wake
	env.Go("echo", func(p *sim.Proc) {
		for {
			var buf [64]*ethernet.Packet
			pkts := buf[:net.PollRxInto(buf[:])]
			if len(pkts) == 0 {
				gate.Wait(p)
				continue
			}
			for _, pkt := range pkts {
				if n.admit != nil && !n.admit.Admit(pkt) {
					continue
				}
				n.seen++
				if n.seen <= n.drop {
					continue // swallow: lost request
				}
				n.got = append(n.got, pkt.ID)
				p.Sleep(n.delay)
				n.txq.Send(pkt, nil)
			}
		}
	})
	return n
}

func TestReliableDeliveryThroughLoss(t *testing.T) {
	env := sim.NewEnv(1)
	net := ethernet.New(env, ethernet.DefaultConfig())
	node := newEchoNode(env, net, 3, nil) // first 3 requests vanish
	cfg := DefaultConfig()
	cfg.RTO = sim.Micros(50)
	c := NewClient(env, net, cfg)
	delivered := map[uint64]bool{}
	c.OnDeliver = func(pkt *ethernet.Packet) { delivered[pkt.ID] = true }

	env.Go("gen", func(p *sim.Proc) {
		for i := 1; i <= 10; i++ {
			c.Send(&ethernet.Packet{ID: uint64(i), Size: 64, TxTime: p.Now()})
			p.Sleep(sim.Micros(5))
		}
	})
	env.Run(sim.Millis(5))

	if len(delivered) != 10 {
		t.Fatalf("delivered %d/10 despite retransmission", len(delivered))
	}
	if c.Retransmits.Value() < 3 {
		t.Fatalf("retransmits = %d, want >= 3", c.Retransmits.Value())
	}
	if c.Lost.Value() != 0 {
		t.Fatalf("lost = %d", c.Lost.Value())
	}
	_ = node
}

func TestWindowBoundsInflight(t *testing.T) {
	env := sim.NewEnv(1)
	net := ethernet.New(env, ethernet.DefaultConfig())
	newEchoNode(env, net, 0, nil)
	cfg := DefaultConfig()
	cfg.Window = 4
	c := NewClient(env, net, cfg)
	count := 0
	c.OnDeliver = func(*ethernet.Packet) { count++ }

	maxInflight := 0
	env.Go("gen", func(p *sim.Proc) {
		for i := 1; i <= 40; i++ {
			c.Send(&ethernet.Packet{ID: uint64(i), Size: 64})
			if c.InFlight() > maxInflight {
				maxInflight = c.InFlight()
			}
		}
	})
	env.Run(sim.Millis(10))
	if maxInflight > 4 {
		t.Fatalf("window exceeded: %d in flight", maxInflight)
	}
	if count != 40 {
		t.Fatalf("delivered %d/40", count)
	}
	if c.Queued.Value() == 0 {
		t.Fatal("no sends were queued despite the tiny window")
	}
}

func TestRetriesExhaustedReportsLost(t *testing.T) {
	env := sim.NewEnv(1)
	net := ethernet.New(env, ethernet.DefaultConfig())
	newEchoNode(env, net, 1000, nil) // black hole
	cfg := Config{Window: 8, RTO: sim.Micros(30), MaxRetries: 2}
	c := NewClient(env, net, cfg)
	var lost []uint64
	c.OnLost = func(pkt *ethernet.Packet) { lost = append(lost, pkt.ID) }

	env.Go("gen", func(p *sim.Proc) {
		c.Send(&ethernet.Packet{ID: 7, Size: 64})
	})
	env.Run(sim.Millis(5))
	if len(lost) != 1 || lost[0] != 7 {
		t.Fatalf("lost = %v, want [7]", lost)
	}
	if c.Retransmits.Value() != 2 {
		t.Fatalf("retransmits = %d, want 2", c.Retransmits.Value())
	}
	if c.InFlight() != 0 {
		t.Fatal("window slot not released on loss")
	}
}

func TestStaleGenerationTimeoutIgnored(t *testing.T) {
	// Service time sits just past the RTO: the client retransmits once,
	// then the response to the original transmission acknowledges the
	// request. Both armed timers are stale by the time they fire — the
	// pre-retransmit one because gen advanced, the post-retransmit one
	// because the entry is gone — and neither may retransmit again or
	// declare the request lost.
	env := sim.NewEnv(1)
	net := ethernet.New(env, ethernet.DefaultConfig())
	node := newEchoNode(env, net, 0, nil)
	node.delay = sim.Micros(60)
	cfg := Config{Window: 8, RTO: sim.Micros(50), MaxRetries: 10}
	c := NewClient(env, net, cfg)
	delivered := 0
	c.OnDeliver = func(*ethernet.Packet) { delivered++ }
	c.OnLost = func(pkt *ethernet.Packet) { t.Errorf("request %d declared lost", pkt.ID) }

	env.Go("gen", func(p *sim.Proc) {
		c.Send(&ethernet.Packet{ID: 1, Size: 64})
	})
	// Run far beyond every armed timer so a stale firing would be seen.
	env.Run(sim.Millis(5))

	if delivered != 1 {
		t.Fatalf("delivered = %d, want exactly 1 (duplicate response must be dropped)", delivered)
	}
	if c.Retransmits.Value() != 1 {
		t.Fatalf("retransmits = %d, want exactly 1 (stale timer must not re-fire)", c.Retransmits.Value())
	}
	if c.InFlight() != 0 {
		t.Fatal("entry leaked after acknowledgement")
	}
	if len(node.got) != 2 {
		t.Fatalf("node saw %d transmissions, want 2 (original + one retransmit)", len(node.got))
	}
}

func TestDedupSuppressesDuplicates(t *testing.T) {
	// A slow node (reply slower than RTO) triggers retransmission; the
	// node-side filter must admit each request exactly once.
	env := sim.NewEnv(1)
	net := ethernet.New(env, ethernet.DefaultConfig())
	dedup := NewDedup(64)
	node := newEchoNode(env, net, 0, dedup)
	node.delay = sim.Micros(60)                                   // service far beyond the RTO
	cfg := Config{Window: 8, RTO: sim.Micros(20), MaxRetries: 50} // RTO < RTT+service
	c := NewClient(env, net, cfg)
	delivered := 0
	c.OnDeliver = func(*ethernet.Packet) { delivered++ }

	env.Go("gen", func(p *sim.Proc) {
		for i := 1; i <= 5; i++ {
			c.Send(&ethernet.Packet{ID: uint64(i), Size: 64})
			p.Sleep(sim.Micros(2))
		}
	})
	env.Run(sim.Millis(5))
	if delivered != 5 {
		t.Fatalf("delivered = %d, want 5", delivered)
	}
	if dedup.Duplicates.Value() == 0 {
		t.Fatal("expected duplicate suppression with a too-short RTO")
	}
	if len(node.got) != 5 {
		t.Fatalf("node admitted %d distinct requests, want 5", len(node.got))
	}
}

func TestDedupWindowEviction(t *testing.T) {
	d := NewDedup(3)
	for i := uint64(1); i <= 5; i++ {
		if !d.Admit(&ethernet.Packet{ID: i}) {
			t.Fatalf("fresh id %d rejected", i)
		}
	}
	// 1 and 2 fell out of the 3-deep window; 5 is remembered.
	if !d.Admit(&ethernet.Packet{ID: 1}) {
		t.Fatal("evicted id still remembered")
	}
	if d.Admit(&ethernet.Packet{ID: 5}) {
		t.Fatal("recent duplicate admitted")
	}
}

func TestReliableDeliveryOverLossyWire(t *testing.T) {
	// 10% injected frame loss in both directions: with retransmission
	// every request must still complete.
	env := sim.NewEnv(9)
	cfg := ethernet.DefaultConfig()
	cfg.LossProb = 0.10
	net := ethernet.New(env, cfg)
	// At-least-once: no dedup filter, because a lost *response* makes the
	// retransmit the only way to get an answer (see Dedup's doc comment).
	newEchoNode(env, net, 0, nil)
	tc := DefaultConfig()
	tc.RTO = sim.Micros(40)
	tc.MaxRetries = 20
	c := NewClient(env, net, tc)
	delivered := map[uint64]bool{}
	c.OnDeliver = func(pkt *ethernet.Packet) { delivered[pkt.ID] = true }

	const n = 200
	env.Go("gen", func(p *sim.Proc) {
		for i := 1; i <= n; i++ {
			c.Send(&ethernet.Packet{ID: uint64(i), Size: 64})
			p.Sleep(sim.Micros(3))
		}
	})
	env.Run(sim.Millis(50))
	if len(delivered) != n {
		t.Fatalf("delivered %d/%d over a 10%%-lossy wire", len(delivered), n)
	}
	if net.LossDrops.Value() == 0 {
		t.Fatal("loss injection never fired")
	}
	if c.Retransmits.Value() == 0 {
		t.Fatal("no retransmissions despite wire loss")
	}
}
