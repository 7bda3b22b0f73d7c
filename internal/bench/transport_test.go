package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/sim"
	"repro/internal/simcheck"
	"repro/internal/transport"
)

// The reliable half of abl-transport with retransmissions forced: wired
// as ablTransport wires it, but with an RTO below the round trip, so
// most requests are resent while their first copy is still at the node —
// the same *Packet sits in the RX ring twice and is delivered while the
// client's timers still hold it, the hazard that keeps this path's
// packets out of the free list. With the oracles armed
// (ethernet/packet-lifetime among them) the run and its audit stay
// clean, and no request is admitted twice.
func TestReliableDriveSurvivesForcedRetransmission(t *testing.T) {
	simcheck.SetArmed(true)
	defer simcheck.SetArmed(false)
	opt := Options{Short: true, Seed: 1, MemNodes: 1, Replicas: 1}
	sys, app := opt.builder(system{app: micro})(core.DiLOS, 1)
	warm, end := sim.Millis(1), sim.Millis(5)
	gen := loadgen.Start(sys.Env, sys.Net, app, 400_000, warm, end)
	tcfg := transport.DefaultConfig()
	tcfg.RTO = sim.Micros(4)
	client := transport.NewClient(sys.Env, sys.Net, tcfg)
	client.OnDeliver = gen.Deliver
	gen.SendFn = client.Send
	dedup := transport.NewDedup(1 << 16)
	sys.Sched.Admit = dedup.Admit
	sys.Env.Run(end + sim.Millis(50))

	sent, completed := gen.Sent.Value(), sys.Sched.Completed.Value()
	if r, d := client.Retransmits.Value(), dedup.Duplicates.Value(); r < sent/2 || d < sent/2 {
		t.Fatalf("%d sent, %d retransmitted, %d duplicates rejected: retransmission was not forced", sent, r, d)
	}
	if completed > sent {
		t.Fatalf("%d completed of %d sent: a retransmitted copy was admitted", completed, sent)
	}
	for _, err := range sys.Audit(core.RunResult{Completed: completed, Gen: gen}, false) {
		t.Error(err)
	}
}
