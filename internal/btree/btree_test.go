package btree

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/workload/steptest"
)

// opStepper is one tree operation as a whole request, so that a harness
// thread can drive it.
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

func (t *Tree) do(th *steptest.Thread, op *Op) *Op {
	th.Run(opStepper{t, op}, nil)
	return op
}

func (t *Tree) lookup(th *steptest.Thread, key uint64) (uint64, bool) {
	var op Op
	op.Lookup(key)
	t.do(th, &op)
	return op.Val, op.Found
}

func (t *Tree) insert(th *steptest.Thread, key, val uint64) {
	var op Op
	op.Insert(key, val)
	t.do(th, &op)
}

// rangeVals returns the values of the keys in [lo, hi], ascending by key.
func (t *Tree) rangeVals(th *steptest.Thread, lo, hi uint64) []uint64 {
	var op Op
	op.Range(lo, hi)
	return t.do(th, &op).Vals
}

// run executes fn as a harness thread over a fresh tree whose paging
// pool holds localPages frames.
func run(t *testing.T, capacityPages, localPages int64, fn func(th *steptest.Thread, tr *Tree, mgr *paging.Manager)) {
	t.Helper()
	env := sim.NewEnv(13)
	mgr := paging.NewManager(env, paging.DefaultConfig(localPages*paging.PageSize))
	tr := New(mgr, memnode.New(1<<30), "idx", capacityPages)
	steptest.NewRig(mgr).Go(func(th *steptest.Thread) { fn(th, tr, mgr) })
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
	run(t, 256, 64, func(th *steptest.Thread, tr *Tree, mgr *paging.Manager) {
		tr.BulkLoad(keys, vals)
		if tr.Len() != n {
			t.Errorf("len = %d", tr.Len())
			return
		}
		for i := 0; i < n; i += 97 {
			v, ok := tr.lookup(th, keys[i])
			if !ok || v != vals[i] {
				t.Errorf("lookup %d = %d,%v want %d", keys[i], v, ok, vals[i])
				return
			}
		}
		// Absent keys.
		if _, ok := tr.lookup(th, 3); ok {
			t.Error("found nonexistent key 3")
		}
		if _, ok := tr.lookup(th, uint64(n*7+100)); ok {
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
	run(t, 128, 32, func(th *steptest.Thread, tr *Tree, mgr *paging.Manager) {
		tr.BulkLoad(keys, vals)
		got := tr.rangeVals(th, 300, 360) // the values of keys 300, 303, …, 360
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
		if got := tr.rangeVals(th, 1000, 4001); len(got) != 1000 || got[0] != 334 || got[999] != 1333 {
			t.Errorf("cross-leaf range: %d values, %v … %v", len(got), got[:1], got[len(got)-1:])
		}
	})
}

func TestInsertIntoEmptyAndGrow(t *testing.T) {
	// Enough inserts to force leaf and root splits (MaxEntries=255).
	const n = 3000
	run(t, 256, 128, func(th *steptest.Thread, tr *Tree, mgr *paging.Manager) {
		rng := sim.NewRNG(7)
		ref := map[uint64]uint64{}
		for i := 0; i < n; i++ {
			k := uint64(rng.Int63n(1 << 30))
			v := uint64(i)
			tr.insert(th, k, v)
			ref[k] = v
		}
		if tr.Len() != int64(len(ref)) {
			t.Errorf("len = %d, want %d", tr.Len(), len(ref))
			return
		}
		for k, v := range ref {
			got, ok := tr.lookup(th, k)
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
		got := tr.rangeVals(th, 0, 1<<62)
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
	run(t, 64, 32, func(th *steptest.Thread, tr *Tree, mgr *paging.Manager) {
		tr.insert(th, 5, 1)
		tr.insert(th, 5, 2)
		if tr.Len() != 1 {
			t.Errorf("len = %d, want 1 after replace", tr.Len())
		}
		if v, ok := tr.lookup(th, 5); !ok || v != 2 {
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
	run(t, 256, 64, func(th *steptest.Thread, tr *Tree, mgr *paging.Manager) {
		tr.BulkLoad(keys, vals)
		// Insert between existing keys.
		for i := 0; i < 500; i++ {
			tr.insert(th, uint64(i*10+5), uint64(1000+i))
		}
		for i := 0; i < 500; i++ {
			if v, ok := tr.lookup(th, uint64(i*10+5)); !ok || v != uint64(1000+i) {
				t.Errorf("inserted key %d missing", i*10+5)
				return
			}
			if v, ok := tr.lookup(th, uint64(i*10)); !ok || v != uint64(i) {
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
		run(t, 512, 256, func(th *steptest.Thread, tr *Tree, mgr *paging.Manager) {
			ref := map[uint64]uint64{}
			for i, raw := range seq.Keys {
				k := uint64(raw)
				tr.insert(th, k, uint64(i))
				ref[k] = uint64(i)
			}
			for k, v := range ref {
				got, found := tr.lookup(th, k)
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
			got := tr.rangeVals(th, 0, 1<<62)
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
	run(t, 512, 24, func(th *steptest.Thread, tr *Tree, mgr *paging.Manager) {
		tr.BulkLoad(keys, vals)
		rng := sim.NewRNG(3)
		for i := 0; i < 300; i++ {
			k := uint64(rng.Int63n(n))
			if v, ok := tr.lookup(th, k); !ok || v != k {
				t.Errorf("lookup %d failed under paging pressure", k)
				return
			}
		}
		if mgr.Faults.Value() == 0 {
			t.Error("tree lookups never faulted with a tiny frame pool")
		}
	})
}

// bulkLoadSHA256 is the digest of the index region after
// TestBulkLoadBytesPinned's load.
const bulkLoadSHA256 = "9259651903b3c4737bac44c3399da5d0911515a5cc8b19a816e648b1671a4f0a"

// TestBulkLoadBytesPinned: BulkLoad writes its nodes straight into the
// backing region; with no page resident the region's digest pins every
// header and entry of a four-level tree.
func TestBulkLoadBytesPinned(t *testing.T) {
	const n = 5000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i], vals[i] = uint64(i*i+7*i), uint64(n-i)<<20|uint64(i)
	}
	env := sim.NewEnv(1)
	tr := New(paging.NewManager(env, paging.DefaultConfig(1<<20)), memnode.New(1<<30), "idx", 512)
	tr.fill = 16 // small nodes: 313 leaves under three internal levels
	tr.BulkLoad(keys, vals)
	sum := sha256.Sum256(tr.Space().Region().Data)
	if got := hex.EncodeToString(sum[:]); got != bulkLoadSHA256 {
		t.Fatalf("bulk-loaded bytes digest %s, want %s", got, bulkLoadSHA256)
	}
}

// TestBulkLoadRefusesResidentRoot: BulkLoad writes around the cache, so a
// tree whose (empty) root page was made resident must be refused rather
// than left with a stale cached root.
func TestBulkLoadRefusesResidentRoot(t *testing.T) {
	env := sim.NewEnv(1)
	tr := New(paging.NewManager(env, paging.DefaultConfig(1<<20)), memnode.New(1<<30), "idx", 16)
	tr.Space().Preload(tr.root*paging.PageSize, paging.PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("BulkLoad over a resident root page did not panic")
		}
	}()
	tr.BulkLoad([]uint64{1, 2, 3}, []uint64{4, 5, 6})
}
