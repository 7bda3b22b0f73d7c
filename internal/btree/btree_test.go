package btree

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ctxThread is a simulated thread with a direct-style workload.Ctx, the
// tree's operations driven under it by workload.Direct.
type ctxThread struct {
	env  *sim.Env
	proc *sim.Proc
	mgr  *paging.Manager
	qp   *rdma.QP
	gate *sim.Gate
}

func (t *ctxThread) Proc() *sim.Proc      { return t.proc }
func (t *ctxThread) QP(node int) *rdma.QP { return t.qp }
func (t *ctxThread) Rand() *sim.RNG       { return t.env.Rand() }
func (t *ctxThread) Compute(d sim.Time)   { t.proc.Sleep(d) }
func (t *ctxThread) Probe()               {}
func (t *ctxThread) CriticalEnter()       {}
func (t *ctxThread) CriticalExit()        {}
func (t *ctxThread) Block(func(func()))   { panic("btree: no operation blocks") }
func (t *ctxThread) WaitPage(s *paging.Space, vpn int64) {
	for !s.Resident(vpn) {
		if t.mgr.RequestPage(t, s, vpn, func(error) { t.gate.Wake() }, true) {
			return
		}
		t.gate.Wait(t.proc)
	}
}

// opStepper is one tree operation as a whole request, so that
// workload.Direct can drive it under a blocking Ctx.
type opStepper struct {
	t  *Tree
	op *Op
}

func (opStepper) Begin(*workload.StepFrame, any)   {}
func (opStepper) Abort(*workload.StepFrame, error) {}
func (s opStepper) Step(ctx workload.StepCtx, _ *workload.StepFrame, _ any) (any, int, sim.Time, workload.StepStatus) {
	if !s.t.Step(ctx, s.op) {
		return nil, 0, 0, workload.StepFault
	}
	return nil, 0, 0, workload.StepDone
}

func (t *Tree) do(ctx workload.Ctx, op *Op) *Op {
	workload.Direct(opStepper{t, op})(ctx, nil)
	return op
}

func (t *Tree) lookup(ctx workload.Ctx, key uint64) (uint64, bool) {
	var op Op
	op.Lookup(key)
	t.do(ctx, &op)
	return op.Val, op.Found
}

func (t *Tree) insert(ctx workload.Ctx, key, val uint64) {
	var op Op
	op.Insert(key, val)
	t.do(ctx, &op)
}

// rangeVals returns the values of the keys in [lo, hi], ascending by key.
func (t *Tree) rangeVals(ctx workload.Ctx, lo, hi uint64) []uint64 {
	var op Op
	op.Range(lo, hi)
	return t.do(ctx, &op).Vals
}

// run executes fn as a simulated thread over a fresh tree whose paging
// pool holds localPages frames.
func run(t *testing.T, capacityPages, localPages int64, fn func(ctx workload.Ctx, tr *Tree, mgr *paging.Manager)) {
	t.Helper()
	env := sim.NewEnv(13)
	mgr := paging.NewManager(env, paging.DefaultConfig(localPages*paging.PageSize))
	node := memnode.New(1 << 30)
	tr := New(mgr, node, "idx", capacityPages)

	nic := rdma.NewNIC(env, rdma.DefaultConfig())
	cq := rdma.NewCQ("t")
	qp := nic.CreateQP("t", cq)
	cq.Notify = func() {
		for _, c := range cq.Poll(64) {
			mgr.Complete(c.Cookie.(*paging.Fetch), c.Err)
		}
	}
	rcq := rdma.NewCQ("reclaim")
	mgr.StartReclaimer(nic.CreateQP("reclaim", rcq), rcq)

	env.Go("driver", func(p *sim.Proc) {
		fn(&ctxThread{env: env, proc: p, mgr: mgr, qp: qp, gate: sim.NewGate(env)}, tr, mgr)
	})
	env.Run(sim.Seconds(600))
}

func TestBulkLoadAndLookup(t *testing.T) {
	const n = 10000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i * 7)
		vals[i] = uint64(i * 13)
	}
	run(t, 256, 64, func(ctx workload.Ctx, tr *Tree, mgr *paging.Manager) {
		tr.BulkLoad(keys, vals)
		if tr.Len() != n {
			t.Errorf("len = %d", tr.Len())
			return
		}
		for i := 0; i < n; i += 97 {
			v, ok := tr.lookup(ctx, keys[i])
			if !ok || v != vals[i] {
				t.Errorf("lookup %d = %d,%v want %d", keys[i], v, ok, vals[i])
				return
			}
		}
		// Absent keys.
		if _, ok := tr.lookup(ctx, 3); ok {
			t.Error("found nonexistent key 3")
		}
		if _, ok := tr.lookup(ctx, uint64(n*7+100)); ok {
			t.Error("found key beyond max")
		}
	})
}

func TestRangeScan(t *testing.T) {
	const n = 5000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i * 3)
		vals[i] = uint64(i)
	}
	run(t, 128, 32, func(ctx workload.Ctx, tr *Tree, mgr *paging.Manager) {
		tr.BulkLoad(keys, vals)
		got := tr.rangeVals(ctx, 300, 360) // the values of keys 300, 303, …, 360
		if len(got) != 21 {
			t.Errorf("range = %v", got)
			return
		}
		for i, v := range got {
			if v != uint64(100+i) {
				t.Errorf("range[%d] = %d want %d", i, v, 100+i)
				return
			}
		}
		// A range across leaf links, bounds between keys.
		if got := tr.rangeVals(ctx, 1000, 4001); len(got) != 1000 || got[0] != 334 || got[999] != 1333 {
			t.Errorf("cross-leaf range: %d values, %v … %v", len(got), got[:1], got[len(got)-1:])
		}
	})
}

func TestInsertIntoEmptyAndGrow(t *testing.T) {
	// Enough inserts to force leaf and root splits (MaxEntries=255).
	const n = 3000
	run(t, 256, 128, func(ctx workload.Ctx, tr *Tree, mgr *paging.Manager) {
		rng := sim.NewRNG(7)
		ref := map[uint64]uint64{}
		for i := 0; i < n; i++ {
			k := uint64(rng.Int63n(1 << 30))
			v := uint64(i)
			tr.insert(ctx, k, v)
			ref[k] = v
		}
		if tr.Len() != int64(len(ref)) {
			t.Errorf("len = %d, want %d", tr.Len(), len(ref))
			return
		}
		for k, v := range ref {
			got, ok := tr.lookup(ctx, k)
			if !ok || got != v {
				t.Errorf("lookup %d = %d,%v want %d", k, got, ok, v)
				return
			}
		}
		// Full iteration must be sorted and complete: each key's value is
		// the index of its last insert, so a key's position in the sorted
		// key list says which value must come there.
		keys := make([]uint64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		got := tr.rangeVals(ctx, 0, 1<<62)
		if len(got) != len(ref) {
			t.Errorf("iterated %d, want %d", len(got), len(ref))
			return
		}
		for i, v := range got {
			if v != ref[keys[i]] {
				t.Errorf("iteration position %d: value %d, want %d (key %d)", i, v, ref[keys[i]], keys[i])
				return
			}
		}
	})
}

func TestInsertReplacesValue(t *testing.T) {
	run(t, 64, 32, func(ctx workload.Ctx, tr *Tree, mgr *paging.Manager) {
		tr.insert(ctx, 5, 1)
		tr.insert(ctx, 5, 2)
		if tr.Len() != 1 {
			t.Errorf("len = %d, want 1 after replace", tr.Len())
		}
		if v, ok := tr.lookup(ctx, 5); !ok || v != 2 {
			t.Errorf("lookup = %d,%v", v, ok)
		}
	})
}

func TestMixedBulkLoadThenInserts(t *testing.T) {
	const n = 2000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i * 10)
		vals[i] = uint64(i)
	}
	run(t, 256, 64, func(ctx workload.Ctx, tr *Tree, mgr *paging.Manager) {
		tr.BulkLoad(keys, vals)
		// Insert between existing keys.
		for i := 0; i < 500; i++ {
			tr.insert(ctx, uint64(i*10+5), uint64(1000+i))
		}
		for i := 0; i < 500; i++ {
			if v, ok := tr.lookup(ctx, uint64(i*10+5)); !ok || v != uint64(1000+i) {
				t.Errorf("inserted key %d missing", i*10+5)
				return
			}
			if v, ok := tr.lookup(ctx, uint64(i*10)); !ok || v != uint64(i) {
				t.Errorf("bulk key %d damaged", i*10)
				return
			}
		}
	})
}

func TestQuickPropertyAgainstMap(t *testing.T) {
	// Property: after an arbitrary op sequence, lookups agree with a map
	// and iteration matches the map's sorted keys.
	type opSeq struct {
		Keys []uint16
	}
	check := func(seq opSeq) bool {
		if len(seq.Keys) == 0 {
			return true
		}
		ok := true
		run(t, 512, 256, func(ctx workload.Ctx, tr *Tree, mgr *paging.Manager) {
			ref := map[uint64]uint64{}
			for i, raw := range seq.Keys {
				k := uint64(raw)
				tr.insert(ctx, k, uint64(i))
				ref[k] = uint64(i)
			}
			for k, v := range ref {
				got, found := tr.lookup(ctx, k)
				if !found || got != v {
					ok = false
					return
				}
			}
			var want []uint64
			for k := range ref {
				want = append(want, k)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			got := tr.rangeVals(ctx, 0, 1<<62)
			if len(got) != len(want) {
				ok = false
				return
			}
			for i, v := range got {
				if v != ref[want[i]] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeFaultsThroughPaging(t *testing.T) {
	const n = 20000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = uint64(i), uint64(i)
	}
	run(t, 512, 24, func(ctx workload.Ctx, tr *Tree, mgr *paging.Manager) {
		tr.BulkLoad(keys, vals)
		rng := sim.NewRNG(3)
		for i := 0; i < 300; i++ {
			k := uint64(rng.Int63n(n))
			if v, ok := tr.lookup(ctx, k); !ok || v != k {
				t.Errorf("lookup %d failed under paging pressure", k)
				return
			}
		}
		if mgr.Faults.Value() == 0 {
			t.Error("tree lookups never faulted with a tiny frame pool")
		}
	})
}
