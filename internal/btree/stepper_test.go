package btree

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/workload/steptest"
)

// recorder is the StepCtx the pinned test drives an Op through. Every
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

// treeOp is one operation of a pinned sequence.
type treeOp struct {
	kind int // 0 insert, 1 lookup, 2 range
	key  uint64
	val  uint64 // insert: the value; range: the high bound
}

// scenario is a tree to start from — bulk-loaded with keys 0, 4, 8, …
// at fill entries a node, or empty — and what its sequence must exercise.
type scenario struct {
	name                    string
	keys, fill              int
	rootSplit, nonRootSplit bool // of an internal node
}

// buildTree builds s's tree, its whole space resident.
func buildTree(s scenario) *Tree {
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
	return tr
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

// summary is a sequence's pinned row: the tree's root, pages used, size
// and internal-node count, and the SHA-256s of the operations' results, of
// the access sequence and of every page's bytes.
func summary(tr *Tree, results [][]uint64, log []int64) string {
	res, acc, pages := sha256.New(), sha256.New(), sha256.New()
	for i, r := range results {
		fmt.Fprintf(res, "%d %v\n", i, r)
	}
	for _, vpn := range log {
		fmt.Fprintf(acc, "%d\n", vpn)
	}
	buf := make([]byte, paging.PageSize)
	for p := int64(0); p < tr.used; p++ {
		tr.space.ReadDirect(p*paging.PageSize, buf)
		pages.Write(buf)
	}
	return fmt.Sprintf("root=%d used=%d size=%d internal=%d results=%x accesses=%d log=%x pages=%x",
		tr.root, tr.used, tr.size, shape(tr), res.Sum(nil), len(log), acc.Sum(nil), pages.Sum(nil))
}

// The resumable operations are the tree's only runtime code, and each row
// of testdata/stepper_digests.txt is what the recursive insertAt and the
// callback Range they replaced did with one sequence — recorded from that
// code, which ran until Op had been proven to replay it. A sequence mixes
// inserts (new keys, and replacements in place), lookups (present and
// absent) and ranges across leaf links, from an empty root leaf that
// splits, a full two-level tree whose internal root splits, and a full
// three-level tree whose internal non-root node splits. Op, missing on
// every k-th access that can miss, for each k, must reproduce the row:
// the same results, the same accesses in the same order, the same bytes
// on every page.
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

			for k := 0; k <= 7; k++ {
				tr := buildTree(s)
				root, internal := tr.root, shape(tr)
				rec := &recorder{t: t, k: k, seen: map[int64]bool{}, missed: -1}
				results := make([][]uint64, len(ops))
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
					switch {
					case want.kind == 1 && op.Found:
						results[i] = []uint64{op.Val}
					case want.kind == 2 && len(op.Vals) > 0:
						results[i] = append([]uint64(nil), op.Vals...)
					}
				}
				if rootSplit := tr.root != root; rootSplit != s.rootSplit || s.nonRootSplit && shape(tr) < internal+1 {
					t.Fatalf("k=%d: sequence did not split what it is for: root %d → %d, internal nodes %d → %d",
						k, root, tr.root, internal, shape(tr))
				}
				if k > 0 && rec.misses == 0 {
					t.Fatalf("k=%d: no access missed", k)
				}
				steptest.Pinned(t, s.name, summary(tr, results, rec.log))
			}
		})
	}
}
