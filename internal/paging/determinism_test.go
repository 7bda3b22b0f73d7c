package paging

import (
	"hash/fnv"
	"testing"

	"repro/internal/memnode"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// TestReclaimerTaskMatchesProcReference runs a store-heavy churn
// workload over a 10-frame pool — the write-back QP capped at depth 1 so
// any eviction round with two dirty victims must block for a slot
// mid-round — and requires the digest the retired proc-loop reclaimer
// produced, recorded when both reclaimers ran side by side: every
// write-back completion time, every loaded byte, final counters, and
// final residency state.
func TestReclaimerTaskMatchesProcReference(t *testing.T) {
	const pages = 64
	run := func() (evictions, writebacks, faults int64, sum uint64) {
		env := sim.NewEnv(1)
		c := DefaultConfig(10 * PageSize)
		c.Policy = LRU
		c.ReclaimThreshold = 0.3
		c.ReclaimBatch = 4
		mgr := NewManager(env, c)
		nic := rdma.NewNIC(env, rdma.DefaultConfig())
		cq := rdma.NewCQ("fetch")
		qp := nic.CreateQP("fetch", cq)
		cq.Notify = func() {
			for _, comp := range cq.Poll(64) {
				mgr.Complete(comp.Cookie.(*Fetch), comp.Err)
			}
		}
		node := memnode.New(1 << 30)
		region := node.MustAlloc("data", pages*PageSize)
		sp := mgr.NewSpace("data", region)

		h := fnv.New64a()
		mix := func(vals ...uint64) {
			var buf [8]byte
			for _, v := range vals {
				for i := 0; i < 8; i++ {
					buf[i] = byte(v >> (8 * i))
				}
				h.Write(buf[:])
			}
		}

		// Dedicated write-back NIC with a depth-1 QP so a mostly-dirty
		// batch of 4 must block for slots mid-round.
		rcfg := rdma.DefaultConfig()
		rcfg.QPDepth = 1
		rnic := rdma.NewNIC(env, rcfg)
		rcq := rdma.NewCQ("reclaim")
		rqp := rnic.CreateQP("reclaim", rcq)
		mgr.StartReclaimerQPs([]*rdma.QP{rqp}, rcq)
		prev := rcq.Notify // the reclaimer's CQ-gate wake
		rcq.Notify = func() {
			mix(uint64(env.Now()))
			prev()
		}

		rng := sim.NewRNG(4)
		d := newHarness(mgr, qp)
		for op := 0; op < 1200; op++ {
			off := rng.Int63n(pages*PageSize - 32)
			n := 1 + rng.Intn(32)
			if rng.Bool(0.7) { // store-heavy: most victims dirty
				buf := make([]byte, n)
				for i := range buf {
					buf[i] = byte(rng.Intn(256))
				}
				d.store(sp, off, buf)
			} else {
				got := make([]byte, n)
				d.load(sp, off, got)
				d.do(func() { h.Write(got) })
			}
			d.sleep(50)
		}
		env.Run(sim.Seconds(60))
		if err := mgr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for pg := int64(0); pg < pages; pg++ {
			if sp.Resident(pg) {
				mix(uint64(pg))
			}
		}
		h.Write(region.Data)
		mix(uint64(mgr.Evictions.Value()), uint64(mgr.DirtyWritebacks.Value()),
			uint64(mgr.Faults.Value()), uint64(rnic.Writes.Value()), uint64(rnic.WriteBytes.Value()))
		return mgr.Evictions.Value(), mgr.DirtyWritebacks.Value(), mgr.Faults.Value(), h.Sum64()
	}

	// What the task reclaimer and the proc reference both gave.
	const rEv, rWb, rF, rSum = 1092, 797, 1097, 0x903ab47400374605
	ev, wb, f, sum := run()
	if ev == 0 || wb < 20 {
		t.Fatalf("workload too tame (%d evictions, %d writebacks); slot-wait path not exercised", ev, wb)
	}
	if ev != rEv || wb != rWb || f != rF || sum != rSum {
		t.Fatalf("task reclaimer diverged from proc reference: evictions %d/%d writebacks %d/%d faults %d/%d digest %x/%x",
			ev, rEv, wb, rWb, f, rF, sum, uint64(rSum))
	}
}
