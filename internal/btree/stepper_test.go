package btree

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/workload"
)

// recorder is the StepCtx the differential drives an Op through. Every
// access goes to Space.TryPage and the pages that hit are logged, retries
// included. The k-th access that could miss — the first to its page since
// Step was entered; in a real step no later one can — misses instead,
// without touching the page, and the re-run must then begin with that
// page, which it probes as the retry (touch-only, as Request.TryPage does
// after a fault).
type recorder struct {
	workload.StepCtx // nil: an Op calls TryPage alone

	t      *testing.T
	k, n   int            // miss every k-th eligible access (never when k is 0); eligible so far
	seen   map[int64]bool // pages accessed since Step was entered
	missed int64          // the page of the miss the re-run must begin with, or -1
	misses int
	log    []int64
}

func (r *recorder) TryPage(sp *paging.Space, vpn int64) ([]byte, bool) {
	retry := r.missed >= 0
	switch {
	case retry && vpn != r.missed:
		r.t.Fatalf("re-run began at page %d; the miss was at page %d", vpn, r.missed)
	case !retry && !r.seen[vpn]:
		if r.n++; r.k > 0 && r.n%r.k == 0 {
			r.missed = vpn
			r.misses++
			return nil, false
		}
	}
	r.missed = -1
	r.seen[vpn] = true
	page, ok := sp.TryPage(vpn, retry)
	if !ok {
		r.t.Fatalf("page %d not resident", vpn)
	}
	r.log = append(r.log, vpn)
	return page, true
}

// touches logs every hit the paging layer sees (the Migrator hook), which
// is every access of the reference: its tree is resident throughout.
type touches struct{ log []int64 }

func (l *touches) RecordFault(*paging.Space, int64, int, bool) {}
func (l *touches) RecordTouch(_ *paging.Space, vpn int64)      { l.log = append(l.log, vpn) }

// resident is the reference's paging.Thread: nothing it touches is ever
// absent.
type resident struct{}

func (resident) QP(int) *rdma.QP               { return nil }
func (resident) WaitPage(*paging.Space, int64) { panic("btree: reference faulted on a resident tree") }

// treeOp is one operation of a differential sequence.
type treeOp struct {
	kind   int // 0 insert, 1 lookup, 2 range
	key    uint64
	val    uint64 // insert: the value; range: the high bound
	result []uint64
}

// scenario is a tree to start from — bulk-loaded with keys 0, 4, 8, …
// at fill entries a node, or empty — and what its sequence must exercise.
type scenario struct {
	name                    string
	keys, fill              int
	rootSplit, nonRootSplit bool // of an internal node
}

// buildTree builds s's tree, its whole space resident, with hits logged
// by the paging layer.
func buildTree(s scenario) (*Tree, *touches) {
	const capacity = 1024
	mgr := paging.NewManager(sim.NewEnv(1), paging.DefaultConfig(2*capacity*paging.PageSize))
	tr := New(mgr, memnode.New(1<<30), "idx", capacity)
	if s.keys > 0 {
		keys, vals := make([]uint64, s.keys), make([]uint64, s.keys)
		for i := range keys {
			keys[i], vals[i] = uint64(4*i), uint64(i)
		}
		tr.fill = s.fill
		tr.BulkLoad(keys, vals)
	}
	tr.space.Preload(0, tr.space.Size())
	log := &touches{}
	mgr.SetMigrator(log)
	return tr, log
}

// shape counts the tree's internal nodes.
func shape(tr *Tree) (internal int) {
	for p := int64(0); p < tr.used; p++ {
		var flags [4]byte
		tr.space.ReadDirect(p*paging.PageSize, flags[:])
		if flags[0]&1 == 0 {
			internal++
		}
	}
	return internal
}

// The resumable operations are the tree's only runtime code; the
// recursive insertAt and the callback Range they replaced are the
// reference they must replay. Over random sequences of inserts (new keys,
// and replacements in place), lookups (present and absent) and ranges
// across leaf links, from an empty root leaf that splits, a full
// two-level tree whose internal root splits, and a full three-level tree
// whose internal non-root node splits, Op — missing on every k-th access
// that can miss, for each k — must make the same accesses in the same
// order as the reference, return the same results, and leave the same
// bytes on every page.
func TestStepperMatchesReference(t *testing.T) {
	for _, s := range []scenario{
		{name: "empty", rootSplit: true},
		{name: "full-two-level", keys: MaxEntries * MaxEntries, fill: MaxEntries, rootSplit: true},
		{name: "full-three-level", keys: (MaxEntries + 1) * MaxEntries, fill: MaxEntries, nonRootSplit: true},
	} {
		t.Run(s.name, func(t *testing.T) {
			rng := sim.NewRNG(int64(len(s.name)))
			span := uint64(4*s.keys + 4000)
			var ops []treeOp
			var inserted []uint64
			for i := 0; i < 700; i++ {
				key := uint64(rng.Int63n(int64(span)))
				switch r := rng.Float64(); {
				case r < 0.6:
					if len(inserted) > 0 && rng.Bool(0.15) {
						key = inserted[rng.Intn(len(inserted))] // replace in place
					}
					inserted = append(inserted, key)
					ops = append(ops, treeOp{kind: 0, key: key, val: uint64(i)})
				case r < 0.8:
					ops = append(ops, treeOp{kind: 1, key: key})
				default:
					ops = append(ops, treeOp{kind: 2, key: key, val: key + uint64(rng.Intn(3000))})
				}
			}

			ref, refLog := buildTree(s)
			root, internal := ref.root, shape(ref)
			for i := range ops {
				op := &ops[i]
				switch rt := (refTree{ref}); op.kind {
				case 0:
					rt.Insert(resident{}, op.key, op.val)
				case 1:
					if v, ok := rt.Lookup(resident{}, op.key); ok {
						op.result = []uint64{v}
					}
				case 2:
					rt.Range(resident{}, op.key, op.val, func(_, v uint64) bool {
						op.result = append(op.result, v)
						return true
					})
				}
			}
			if rootSplit := ref.root != root; rootSplit != s.rootSplit || s.nonRootSplit && shape(ref) < internal+1 {
				t.Fatalf("sequence did not split what it is for: root %d → %d, internal nodes %d → %d",
					root, ref.root, internal, shape(ref))
			}

			for k := 0; k <= 7; k++ {
				tr, _ := buildTree(s)
				rec := &recorder{t: t, k: k, seen: map[int64]bool{}, missed: -1}
				var op Op
				for i, want := range ops {
					switch want.kind {
					case 0:
						op.Insert(want.key, want.val)
					case 1:
						op.Lookup(want.key)
					case 2:
						op.Range(want.key, want.val)
					}
					for clear(rec.seen); !tr.Step(rec, &op); clear(rec.seen) {
					}
					var got []uint64
					switch {
					case want.kind == 1 && op.Found:
						got = []uint64{op.Val}
					case want.kind == 2 && len(op.Vals) > 0:
						got = op.Vals
					}
					if !reflect.DeepEqual(got, want.result) {
						t.Fatalf("k=%d, op %d (%+v): result %v, reference %v", k, i, want, got, want.result)
					}
				}
				if k > 0 && rec.misses == 0 {
					t.Fatalf("k=%d: no access missed", k)
				}
				if !reflect.DeepEqual(rec.log, refLog.log) {
					n := 0
					for n < len(rec.log) && n < len(refLog.log) && rec.log[n] == refLog.log[n] {
						n++
					}
					t.Fatalf("k=%d: access sequences diverge at access %d of %d / %d", k, n, len(rec.log), len(refLog.log))
				}
				if tr.root != ref.root || tr.used != ref.used || tr.size != ref.size {
					t.Fatalf("k=%d: root/used/size %d/%d/%d, reference %d/%d/%d", k, tr.root, tr.used, tr.size, ref.root, ref.used, ref.size)
				}
				got, want := make([]byte, paging.PageSize), make([]byte, paging.PageSize)
				for p := int64(0); p < ref.used; p++ {
					tr.space.ReadDirect(p*paging.PageSize, got)
					ref.space.ReadDirect(p*paging.PageSize, want)
					if !bytes.Equal(got, want) {
						t.Fatalf("k=%d: page %d differs from the reference's", k, p)
					}
				}
			}
		})
	}
}
