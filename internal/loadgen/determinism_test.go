package loadgen

import (
	"hash/fnv"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/sim"
)

// TestTaskMatchesProcReference runs the short echo experiment on the
// task generator and requires the output the retired proc loop gave,
// recorded when both ran side by side: the same sent/delivered counts
// and a bit-identical digest over every delivered packet's (ID, TxTime,
// RxTime). The generator must not move a single event.
func TestTaskMatchesProcReference(t *testing.T) {
	run := func() (sent, delivered int64, sum uint64) {
		env := sim.NewEnv(3)
		net := ethernet.New(env, ethernet.DefaultConfig())
		echoNode(env, net)
		g := Start(env, net, echoApp{}, 150_000, sim.Millis(1), sim.Millis(30))
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

	// What the task generator and the proc reference both gave.
	const refSent, refDel, refSum = 4454, 4324, 0x7342cd6391f1773f
	taskSent, taskDel, taskSum := run()
	if taskSent == 0 || taskDel == 0 {
		t.Fatal("experiment sent nothing")
	}
	if taskSent != refSent || taskDel != refDel || taskSum != refSum {
		t.Fatalf("task generator diverged from proc reference: sent %d/%d delivered %d/%d digest %x/%x",
			taskSent, refSent, taskDel, refDel, taskSum, uint64(refSum))
	}
}

func put64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
