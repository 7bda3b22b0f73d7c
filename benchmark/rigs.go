package main

import (
	"sort"
	"time"

	"repro/internal/ethernet"
	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// The rigs isolate one layer each behind its public API, the way the
// full system drives it, so a per-request host-time move can be traced
// to a layer without a profiler. Each runs a fixed amount of work a few
// times and reports the median host nanoseconds per operation.

const rigBatches = 5

// rigSink keeps the calibration loop's result alive.
var rigSink uint64

// nsPerOp times batch rigBatches times and returns the median cost of
// one of the ops operations a batch performs.
func nsPerOp(ops int, batch func()) float64 {
	times := make([]float64, rigBatches)
	for i := range times {
		t := time.Now()
		batch()
		times[i] = float64(time.Since(t).Nanoseconds()) / float64(ops)
	}
	sort.Float64s(times)
	return times[rigBatches/2]
}

// runRigs runs every rig and the calibration loop once.
func runRigs() map[string]float64 {
	hit, miss := rigPaging()
	return map[string]float64{
		"sim.rig_event_ns":       rigEvent(),
		"sim.rig_proc_switch_ns": rigProcSwitch(),
		"rdma.rig_read_ns":       rigRead(),
		"ethernet.rig_txrx_ns":   rigTxRx(),
		"paging.rig_hit_ns":      hit,
		"paging.rig_miss_ns":     miss,
		"host.calib_ns":          rigCalib(),
	}
}

// rigEvent: Env.At + Run. 64 self-re-arming callbacks at co-prime
// strides keep the wheel as populated as a loaded run does; one op is
// one event scheduled and dispatched.
func rigEvent() float64 {
	const chains, ops = 64, 1_000_000
	env := sim.NewEnv(1)
	return nsPerOp(ops, func() {
		left := ops
		for c := 0; c < chains; c++ {
			stride := sim.Time(2*c + 3)
			var fn func()
			fn = func() {
				if left--; left >= chains {
					env.After(stride, fn)
				}
			}
			env.After(stride, fn)
		}
		env.RunAll()
	})
}

// rigProcSwitch: two procs handing control back and forth over gates,
// the worker↔unithread shape of the goroutine tier. One op is one
// park + wake + resume.
func rigProcSwitch() float64 {
	const rounds = 100_000
	return nsPerOp(2*rounds, func() {
		env := sim.NewEnv(1)
		ga, gb := sim.NewGate(env), sim.NewGate(env)
		env.Go("a", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				gb.Wake()
				ga.Wait(p)
			}
		})
		env.Go("b", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				gb.Wait(p)
				ga.Wake()
			}
		})
		env.RunAll()
	})
}

// rigRead: QP.PostRead → CQ.PollInto, eight 4 KiB reads in flight,
// re-posted from the completion hook. One op is one read posted,
// delivered (with its copy) and polled.
func rigRead() float64 {
	const depth, ops = 8, 200_000
	env := sim.NewEnv(1)
	nic := rdma.NewNIC(env, rdma.DefaultConfig())
	cq := rdma.NewCQ("rig")
	qp := nic.CreateQP("rig", cq)
	remote := make([]byte, depth*paging.PageSize)
	local := make([]byte, depth*paging.PageSize)
	slots := make([]int, depth) // cookies: pointers into slots, so posting allocates nothing
	var posted int
	post := func(slot *int) {
		off := *slot * paging.PageSize
		if err := qp.PostRead(local[off:off+paging.PageSize], remote[off:off+paging.PageSize], slot); err != nil {
			panic(err) // depth is far below QPDepth and nothing injects faults
		}
		posted++
	}
	var buf [depth]rdma.Completion
	cq.Notify = func() {
		for _, c := range buf[:cq.PollInto(buf[:])] {
			if posted < ops {
				post(c.Cookie.(*int))
			}
		}
	}
	return nsPerOp(ops, func() {
		posted = 0
		for i := range slots {
			slots[i] = i
			post(&slots[i])
		}
		env.RunAll()
	})
}

// rigTxRx: Net.SendToNode → Net.PollRxInto, eight frames in flight,
// re-sent from the RX hook. One op is one frame serialized, landed in
// the RX ring and polled.
func rigTxRx() float64 {
	const depth, ops = 8, 500_000
	env := sim.NewEnv(1)
	net := ethernet.New(env, ethernet.DefaultConfig())
	pkts := make([]ethernet.Packet, depth)
	var sent int
	var buf [depth]*ethernet.Packet
	net.RxNotify = func() {
		for _, pkt := range buf[:net.PollRxInto(buf[:])] {
			if sent < ops {
				sent++
				net.SendToNode(pkt)
			}
		}
	}
	return nsPerOp(ops, func() {
		sent = 0
		for i := range pkts {
			pkts[i] = ethernet.Packet{ID: uint64(i), Size: 64}
			sent++
			net.SendToNode(&pkts[i])
		}
		env.RunAll()
	})
}

// rigThread is the harness paging.Thread: one proc, one QP, completions
// applied from the CQ hook, WaitPage parking on a private gate.
type rigThread struct {
	proc *sim.Proc
	qp   *rdma.QP
	mgr  *paging.Manager
	gate *sim.Gate
	wake func(error)
}

func (t *rigThread) Proc() *sim.Proc { return t.proc }
func (t *rigThread) QP(int) *rdma.QP { return t.qp }
func (t *rigThread) WaitPage(s *paging.Space, vpn int64) {
	for !t.mgr.RequestPage(t, s, vpn, t.wake, true) {
		t.gate.Wait(t.proc)
	}
}

// rigPaging: Space.LoadU64 under a harness thread, over a 256-frame
// pool with the reclaimer running. The hit walk stays inside the
// preloaded pages; the miss walk cycles through 16× the pool, so every
// access is a demand fetch and, once the pool fills, an eviction.
func rigPaging() (hitNs, missNs float64) {
	const frames, pages = 256, 4096
	const hits, misses = 2_000_000, 50_000
	env := sim.NewEnv(1)
	mgr := paging.NewManager(env, paging.DefaultConfig(frames*paging.PageSize))
	nic := rdma.NewNIC(env, rdma.DefaultConfig())
	region := memnode.New(1<<30).MustAlloc("rig", pages*paging.PageSize)
	space := mgr.NewSpace("rig", region)

	cq := rdma.NewCQ("rig")
	var buf [8]rdma.Completion
	cq.Notify = func() {
		for _, c := range buf[:cq.PollInto(buf[:])] {
			mgr.Complete(c.Cookie.(*paging.Fetch), c.Err)
		}
	}
	rcq := rdma.NewCQ("rig-reclaim")
	mgr.StartReclaimer(nic.CreateQP("rig-reclaim", rcq), rcq)
	th := &rigThread{qp: nic.CreateQP("rig", cq), mgr: mgr, gate: sim.NewGate(env)}
	th.wake = func(error) { th.gate.Wake() }

	// walk runs n loads on a fresh proc, visiting span pages in order.
	walk := func(n int, span int64) {
		var sum uint64
		env.Go("rig", func(p *sim.Proc) {
			th.proc = p
			for i := 0; i < n; i++ {
				page := int64(i) % span
				sum += space.LoadU64(th, page*paging.PageSize+int64(i&511)*8)
			}
		})
		env.RunAll()
		rigSink += sum
	}

	const resident = frames / 2
	space.Preload(0, resident*paging.PageSize)
	hitNs = nsPerOp(hits, func() { walk(hits, resident) })
	missNs = nsPerOp(misses, func() { walk(misses, pages) })
	return hitNs, missNs
}

// rigCalib is a fixed arithmetic + memory-copy loop that touches no
// repository code: the session's speed, to divide the other numbers by.
// One op is one 4 KiB copy plus 512 multiply-xorshift steps.
func rigCalib() float64 {
	const ops = 40_000
	src := make([]byte, 1<<20)
	dst := make([]byte, paging.PageSize)
	return nsPerOp(ops, func() {
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < ops; i++ {
			off := (i * paging.PageSize) & (len(src) - 1)
			copy(dst, src[off:off+paging.PageSize])
			for j := 0; j < 512; j++ {
				x ^= x >> 12
				x *= 0x2545F4914F6CDD1D
				x ^= x << 25
			}
			x += uint64(dst[i&(paging.PageSize-1)])
		}
		rigSink += x
	})
}
