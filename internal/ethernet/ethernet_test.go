package ethernet

import (
	"testing"

	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/simcheck"
)

func TestRequestDeliveryAndTimestamps(t *testing.T) {
	env := sim.NewEnv(1)
	net := New(env, DefaultConfig())
	notified := 0
	net.RxNotify = func() { notified++ }

	pkt := &Packet{ID: 1, Size: 64, TxTime: env.Now()}
	net.SendToNode(pkt)
	env.RunAll()

	if notified != 1 {
		t.Fatalf("notified = %d", notified)
	}
	got := make([]*Packet, 8)
	got = got[:net.PollRxInto(got)]
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("rx = %v", got)
	}
	if got[0].ArriveNode <= 0 {
		t.Fatal("ArriveNode not stamped")
	}
	// One-way request latency ≈ serialize + flight ≈ 1.06us + tiny.
	us := got[0].ArriveNode.Micros()
	if us < 1.0 || us > 1.3 {
		t.Fatalf("one-way latency = %.2fus, want ~1.1us", us)
	}
}

func TestRxRingOverflowDrops(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.RxRing = 4
	net := New(env, cfg)
	for i := 0; i < 10; i++ {
		net.SendToNode(&Packet{ID: uint64(i), Size: 64})
	}
	env.RunAll()
	if net.RxLen() != 4 {
		t.Fatalf("rx len = %d, want 4", net.RxLen())
	}
	if net.Drops.Value() != 6 {
		t.Fatalf("drops = %d, want 6", net.Drops.Value())
	}
	if net.RxCount.Value() != 4 {
		t.Fatalf("rx count = %d, want 4", net.RxCount.Value())
	}
}

func TestResponsePathDeliversAndCompletes(t *testing.T) {
	env := sim.NewEnv(1)
	net := New(env, DefaultConfig())
	cq := rdma.NewCQ("tx-cq")
	txq := net.CreateTxQueue("w0", cq)

	var delivered *Packet
	net.OnDeliver = func(p *Packet) { delivered = p }

	pkt := &Packet{ID: 7, Size: 128, TxTime: 0}
	env.Go("worker", func(p *sim.Proc) {
		p.Sleep(1000)
		txq.Send(pkt, "cookie")
	})
	env.RunAll()

	if delivered == nil || delivered.ID != 7 {
		t.Fatal("response not delivered")
	}
	if delivered.RxTime <= 1000 {
		t.Fatal("RxTime not stamped after send")
	}
	cs := cq.Poll(8)
	if len(cs) != 1 {
		t.Fatalf("tx completions = %d, want 1", len(cs))
	}
	if cs[0].Cookie != "cookie" || cs[0].Bytes != 128 {
		t.Fatalf("completion = %+v, want the sender's cookie and the frame's 128 bytes", cs[0])
	}
	// With the calibrated model the TX completion (CQE DMA write-back,
	// ~2us) lands after the client receives the frame (flight 1.05us).
	if cs[0].At <= delivered.RxTime {
		t.Fatal("expected TX completion after client delivery with default config")
	}
}

func TestTxSerializationAndUtilization(t *testing.T) {
	env := sim.NewEnv(1)
	net := New(env, DefaultConfig())
	cq := rdma.NewCQ("cq")
	txq := net.CreateTxQueue("w", cq)
	net.StartWindow()

	var deliveries []sim.Time
	net.OnDeliver = func(p *Packet) { deliveries = append(deliveries, p.RxTime) }
	// Two back-to-back sends of equal size: second delivery exactly one
	// transfer time after the first.
	txq.Send(&Packet{Size: 1024}, nil)
	txq.Send(&Packet{Size: 1024}, nil)
	env.RunAll()
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %d", len(deliveries))
	}
	cfg := net.Config()
	xfer := sim.Time(float64(1024+cfg.WireOverhead) * cfg.CyclesPerByte)
	if deliveries[1]-deliveries[0] != xfer {
		t.Fatalf("gap = %v, want %v", deliveries[1]-deliveries[0], xfer)
	}
	if net.TxUtilization() <= 0 {
		t.Fatal("tx utilization not accounted")
	}
}

func TestPollRxBatching(t *testing.T) {
	env := sim.NewEnv(1)
	net := New(env, DefaultConfig())
	for i := 0; i < 5; i++ {
		net.SendToNode(&Packet{ID: uint64(i), Size: 64})
	}
	env.RunAll()
	buf := make([]*Packet, 10)
	if got := net.PollRxInto(buf[:2]); got != 2 {
		t.Fatalf("poll(2) = %d", got)
	}
	if got := net.PollRxInto(buf); got != 3 {
		t.Fatalf("poll(10) = %d", got)
	}
	if net.PollRxInto(buf[:1]) != 0 {
		t.Fatal("expected empty poll")
	}
}

// The RX ring is RxRing slots and stays that: a consumer slower than the
// arrivals — one that always leaves a packet behind, so the ring is
// never seen empty — must neither grow it nor leave a consumed packet
// reachable from the Net (a pooled one may be recycled and in flight
// again by then).
func TestRxRingIsFixedAndClearedOnPoll(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.RxRing = 16
	net := New(env, cfg)
	consumed := map[*Packet]bool{}
	var buf [16]*Packet
	var order []uint64
	net.RxNotify = func() {
		if have := net.RxLen(); have > 1 {
			for _, pkt := range buf[:net.PollRxInto(buf[:have-1])] {
				consumed[pkt] = true
				order = append(order, pkt.ID)
			}
		}
	}
	const total = 8 * 16
	sent := 0
	var send func()
	send = func() {
		for i := 0; i < 3 && sent < total; i++ {
			sent++
			net.SendToNode(&Packet{ID: uint64(sent), Size: 64})
		}
		if sent < total {
			env.After(2000, send)
		}
	}
	send()
	env.RunAll()
	if len(consumed) != total-1 || net.RxLen() != 1 || net.Drops.Value() != 0 {
		t.Fatalf("consumed %d of %d, %d left in the ring, %d dropped", len(consumed), total, net.RxLen(), net.Drops.Value())
	}
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("poll order broke FIFO at %d: %v", i, order)
		}
	}
	if len(net.rx) != cfg.RxRing || cap(net.rx) != cfg.RxRing {
		t.Fatalf("ring storage is %d/%d slots, want %d", len(net.rx), cap(net.rx), cfg.RxRing)
	}
	live := 0
	for _, pkt := range net.rx {
		if consumed[pkt] {
			t.Fatalf("consumed packet %d still reachable from the ring", pkt.ID)
		}
		if pkt != nil {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("%d occupied slots, want the one packet left behind", live)
	}
}

// A pooled packet returns to its free list at the second of its two
// releases, in either order, and keeps its payload for the sender to
// refill; a packet built by its sender ignores Release.
func TestPacketPoolTwoOwnerRule(t *testing.T) {
	var pool PacketPool
	for _, order := range [][2]Owner{{Sender, Node}, {Node, Sender}} {
		pkt := pool.Get()
		use := pkt.Use()
		pkt.Payload = "record"
		pkt.Release(order[0])
		if len(pool.free) != 0 {
			t.Fatalf("recycled after %v alone", order[0])
		}
		pkt.Release(order[1])
		again := pool.Get()
		if again != pkt || again.Payload != "record" || again.Use() != use+1 {
			t.Fatalf("got %+v, want the released packet, payload kept, in its next use", again)
		}
		again.Release(Sender)
		again.Release(Node)
	}
	lit := &Packet{ID: 1}
	lit.Release(Sender)
	lit.Release(Node)
	lit.Release(Node)
	if len(pool.free) != 1 {
		t.Fatalf("free list holds %d packets, want 1", len(pool.free))
	}
}

// The ethernet/packet-lifetime oracle: a double release, a send from the
// free list and a read by a holder from an earlier use all fire.
func TestPacketLifetimeOracle(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)
	fires := func(name string, fn func()) {
		t.Helper()
		defer func() {
			v, ok := simcheck.AsViolation(recover())
			if !ok || v.Oracle != "ethernet/packet-lifetime" {
				t.Fatalf("%s: oracle did not fire (%v)", name, v)
			}
		}()
		fn()
	}
	env := sim.NewEnv(1)
	net := New(env, DefaultConfig())
	var pool PacketPool
	pkt := pool.Get()
	pkt.Release(Node)
	fires("double release", func() { pkt.Release(Node) })
	pkt.Release(Sender)
	fires("send from the free list", func() { net.SendToNode(pkt) })
	stale := pkt.Use()
	pool.Get()
	fires("stale holder", func() { pkt.Held(stale, "read") })
	pkt.Held(pkt.Use(), "read")
}
