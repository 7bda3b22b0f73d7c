// Package btree is a B+tree over paged remote memory: one node per
// 4 KiB page, uint64 keys and values, leaf-linked for range scans. Every
// descent, scan, and split goes through the paging subsystem, so index
// traversals fault exactly like the pointer-chasing index structures
// (Masstree in Silo, PlainTable's index) of the paper's applications.
//
// The tree supports setup-time bulk loading from sorted pairs (building
// the database before measurement, like the paper's load phases) and
// runtime Lookup/Range/Insert as resumable operations (Op) that a
// request's step handler drives through its workload.StepCtx, so an
// index descent that misses parks in a few words of the request's record
// rather than on a stack.
package btree

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/workload"
)

// Node layout within one page:
//
//	0:4   flags (1 = leaf)
//	4:8   count
//	8:16  next-leaf page id (leaves) / unused (internal)
//	16:   entries
//	      leaf:     count × (key u64, value u64)
//	      internal: count × (key u64, child u64); child holds keys < key,
//	                plus a final child at entry slot count (key ignored).
const (
	hdrSize   = 16
	entrySize = 16
	// MaxEntries is the per-node fan-out. One slot of the page is held
	// back so a node may be transiently overfull (MaxEntries+1 entries)
	// during an insert, right before it splits, without spilling into
	// the neighbouring page.
	MaxEntries = (paging.PageSize-hdrSize)/entrySize - 1 // 254

	// maxDepth bounds the internal levels an Insert remembers: 254⁸ keys.
	maxDepth = 8
)

// Tree is the B+tree handle. The root page id and allocation cursor are
// in-core metadata (a real system keeps them in a superblock).
type Tree struct {
	space *paging.Space
	root  int64
	used  int64 // pages allocated
	size  int64 // number of keys

	// fill bounds node occupancy for bulk loading (leave headroom for
	// runtime inserts).
	fill int
}

// New creates an empty tree inside a fresh region of node (capacity
// pages of index space).
func New(mgr *paging.Manager, node memnode.Allocator, name string, capacityPages int64) *Tree {
	if capacityPages < 4 {
		capacityPages = 4
	}
	region := node.MustAlloc(name, capacityPages*paging.PageSize)
	// Page 0 is the initial empty leaf root.
	t := &Tree{space: mgr.NewSpace(name, region), used: 1, fill: MaxEntries * 3 / 4}
	putHeader(t.space.SetupBytes(), 0, true, 0, -1)
	return t
}

// Space exposes the underlying paged space (sizing, preloading).
func (t *Tree) Space() *paging.Space { return t.space }

// Len returns the number of stored keys.
func (t *Tree) Len() int64 { return t.size }

// --- set-up node writers, over the space's paging.SetupBytes view ---

func putHeader(b []byte, page int64, leaf bool, count int, next int64) {
	h := b[page*paging.PageSize:]
	var flags uint32
	if leaf {
		flags = 1
	}
	binary.LittleEndian.PutUint32(h[0:4], flags)
	binary.LittleEndian.PutUint32(h[4:8], uint32(count))
	binary.LittleEndian.PutUint64(h[8:16], uint64(next))
}

func putEntry(b []byte, page int64, slot int, key, val uint64) {
	e := b[page*paging.PageSize+hdrSize+int64(slot)*entrySize:]
	binary.LittleEndian.PutUint64(e[0:8], key)
	binary.LittleEndian.PutUint64(e[8:16], val)
}

// BulkLoad builds the tree from key-sorted pairs at setup time, writing
// its nodes through the space's SetupBytes view (no simulated cost; it
// panics if any page of the tree is resident). The tree must be empty.
// Keys must be strictly increasing.
func (t *Tree) BulkLoad(keys, vals []uint64) {
	if t.size != 0 {
		panic("btree: bulk load into non-empty tree")
	}
	if len(keys) != len(vals) {
		panic("btree: keys/vals length mismatch")
	}
	if len(keys) == 0 {
		return
	}
	if !slices.IsSorted(keys) {
		panic("btree: bulk load requires sorted keys")
	}
	b := t.space.SetupBytes()
	// Build leaves.
	type nodeRef struct {
		page int64
		min  uint64
	}
	var level []nodeRef
	t.used = 0
	for i := 0; i < len(keys); {
		n := min(t.fill, len(keys)-i)
		page := t.alloc()
		for s := 0; s < n; s++ {
			putEntry(b, page, s, keys[i+s], vals[i+s])
		}
		level = append(level, nodeRef{page: page, min: keys[i]})
		i += n
		next := int64(-1)
		if i < len(keys) {
			next = page + 1 // leaves are allocated contiguously
		}
		putHeader(b, page, true, n, next)
	}
	// Build internal levels bottom-up.
	for len(level) > 1 {
		var up []nodeRef
		for i := 0; i < len(level); {
			n := min(t.fill, len(level)-i)
			page := t.alloc()
			for s := 0; s < n; s++ {
				putEntry(b, page, s, level[i+s].min, uint64(level[i+s].page))
			}
			putHeader(b, page, false, n, -1)
			up = append(up, nodeRef{page: page, min: level[i].min})
			i += n
		}
		level = up
	}
	t.root = level[0].page
	t.size = int64(len(keys))
}

func (t *Tree) alloc() int64 {
	if (t.used+1)*paging.PageSize > t.space.Size() {
		panic(fmt.Sprintf("btree: %s out of index pages (%d used)", t.space.Name(), t.used))
	}
	p := t.used
	t.used++
	return p
}

// --- runtime (paged, costed) node accessors ---

// node is one tree page as a phase of an Op accesses it (workload.Page):
// every word it reads or writes is one paged access.
type node struct{ workload.Page }

func (n *node) header() (leaf bool, count int, next int64) {
	return n.U32(0)&1 == 1, int(n.U32(4)), int64(n.U64(8))
}

func (n *node) entry(slot int) (key, val uint64) {
	off := hdrSize + int64(slot)*entrySize
	return n.U64(off), n.U64(off + 8)
}

func (n *node) setEntry(slot int, key, val uint64) {
	off := hdrSize + int64(slot)*entrySize
	n.SetU64(off, key)
	n.SetU64(off+8, val)
}

func (n *node) setHeader(leaf bool, count int, next int64) {
	var flags uint32
	if leaf {
		flags = 1
	}
	n.SetU32(0, flags)
	n.SetU32(4, uint32(count))
	n.SetU64(8, uint64(next))
}

// lowerBound returns the first slot whose key is >= key (binary search
// within the node; single page access pattern).
func (n *node) lowerBound(count int, key uint64) int {
	lo, hi := 0, count
	for lo < hi {
		mid := (lo + hi) / 2
		if k, _ := n.entry(mid); k < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the child page to descend into for key.
func (n *node) childFor(count int, key uint64) int64 {
	// Entries hold (minKey, child); pick the last child whose minKey <= key
	// (the first child for a key below every minKey).
	idx := n.lowerBound(count, key)
	if idx < count {
		if k, _ := n.entry(idx); k == key {
			idx++
		}
	}
	_, c := n.entry(max(idx-1, 0))
	return int64(c)
}

// shiftRight opens a slot at idx in a node holding count entries.
func (n *node) shiftRight(idx, count int) {
	for s := count; s > idx; s-- {
		k, v := n.entry(s - 1)
		n.setEntry(s, k, v)
	}
}

// --- resumable operations ---

// Op is one runtime operation on a tree — Lookup, Range or Insert — in
// resumable form: the request arms it with one of those methods and calls
// Tree.Step until it reports done, returning StepFault to the scheduler
// in between. It is a few words in the request's record where a
// recursive descent would keep a stack. Each phase visits one node, or
// for a split alternates between the node and its new sibling a phase per
// page, in the order the recursive descent accessed them; only a phase's
// first access can miss — within a step no simulated time passes, and a
// hit evicts nothing — so the re-run after a fault begins with the access
// that faulted. Insert remembers the internal nodes it descended through
// with the counts their headers held (the recursion's locals) and the
// page a split allocated, so a resumed step neither re-reads a level nor
// allocates again.
type Op struct {
	// Val and Found are a Lookup's result; Vals collects a Range's
	// values, ascending by key.
	Val   uint64
	Found bool
	Vals  []uint64

	pc       int
	key, val uint64 // Lookup or Insert key (Range: the low bound); Insert value
	hi       uint64 // Range: the high bound
	page     int64  // the node the next phase visits

	path  [maxDepth]level // Insert: the internal nodes above page, root first
	depth int

	// A split in progress: the overfull node at page (kind, count, leaf
	// link), its new right sibling, and the entry being moved; then the
	// separator it promotes. A root split also keeps the old root and its
	// minimum key.
	leaf        bool
	count, s    int
	next, right int64
	k, v, sep   uint64
	root        int64
	rootMinKey  uint64
}

type level struct {
	page  int64
	count int
}

// Op phases (Op.pc).
const (
	opDone       = iota
	lookupRoot   // Lookup: from the root …
	lookupNode   // … one node a phase down to the leaf, which holds the answer or not
	rangeRoot    // Range: from the root …
	rangeNode    // … down toward the low bound …
	rangeLeaf    // … then a leaf a phase along the links until a key passes the high bound
	insertRoot   // Insert: from the root …
	insertNode   // … one node a phase — separators fixed on the way — to the leaf, which takes the pair
	splitAlloc   // an overfull node splits: a right sibling is allocated …
	splitGet     // … the upper half moves an entry at a time, read from the node …
	splitPut     // … and written to the sibling, whose header follows the last one …
	splitHdr     // … the node's header …
	splitSep     // … and the separator is read back from the sibling
	insertUp     // the separator goes up a level …
	insertParent // … into the parent, which may overflow in turn …
	rootMin      // … or past the root: the old root's minimum key is walked down …
	rootAlloc    // … a root page is allocated …
	rootNew      // … and written with the two halves as its children
)

// Lookup arms op to find key's value (Val, Found).
func (op *Op) Lookup(key uint64) { *op = Op{pc: lookupRoot, key: key, Vals: op.Vals} }

// Range arms op to collect the values of every key in [lo, hi] into Vals,
// which it empties first. Leaf links make the scan sequential.
func (op *Op) Range(lo, hi uint64) { *op = Op{pc: rangeRoot, key: lo, hi: hi, Vals: op.Vals[:0]} }

// Insert arms op to store (key, val), replacing any existing value. Node
// splits propagate upward; a root split grows the tree.
func (op *Op) Insert(key, val uint64) { *op = Op{pc: insertRoot, key: key, val: val, Vals: op.Vals} }

// Step runs op until it is done, and reports true, or until an access
// misses, and reports false: the caller returns workload.StepFault (ctx
// has recorded the page) and calls Step again once the page is resident.
func (t *Tree) Step(ctx workload.StepCtx, op *Op) bool {
	for {
		var n node
		if page := op.at(); page >= 0 && !n.Open(ctx, t.space, page*paging.PageSize) {
			return false
		}
		switch op.pc {
		case opDone:
			return true

		case lookupRoot, rangeRoot, insertRoot:
			op.page, op.pc = t.root, op.pc+1

		case lookupNode:
			switch leaf, count, _ := n.header(); {
			case leaf:
				if idx := n.lowerBound(count, op.key); idx < count {
					if k, v := n.entry(idx); k == op.key {
						op.Val, op.Found = v, true
					}
				}
				op.pc = opDone
			case count == 0:
				op.pc = opDone
			default:
				op.page = n.childFor(count, op.key)
			}

		case rangeNode:
			switch leaf, count, _ := n.header(); {
			case leaf:
				op.pc = rangeLeaf
			case count == 0:
				op.pc = opDone
			default:
				op.page = n.childFor(count, op.key)
			}
		case rangeLeaf:
			_, count, next := n.header()
			idx := n.lowerBound(count, op.key)
			for op.page = next; idx < count; idx++ {
				k, v := n.entry(idx)
				if k > op.hi {
					op.page = -1
					break
				}
				op.Vals = append(op.Vals, v)
			}
			if op.page < 0 {
				op.pc = opDone
			}

		case insertNode:
			leaf, count, next := n.header()
			if !leaf {
				child := n.childFor(count, op.key)
				// Keep separators correct for keys below the subtree minimum.
				if k0, _ := n.entry(0); op.key < k0 {
					_, c0 := n.entry(0)
					n.setEntry(0, op.key, c0)
				}
				if op.depth == maxDepth {
					panic("btree: deeper than maxDepth")
				}
				op.path[op.depth] = level{op.page, count}
				op.depth++
				op.page = child
				continue
			}
			idx := n.lowerBound(count, op.key)
			if idx < count {
				if k, _ := n.entry(idx); k == op.key {
					n.setEntry(idx, op.key, op.val) // replace
					op.pc = opDone
					continue
				}
			}
			n.shiftRight(idx, count)
			n.setEntry(idx, op.key, op.val)
			t.size++
			op.settle(&n, true, count+1, next)

		case splitAlloc:
			op.right, op.s, op.pc = t.alloc(), 0, splitGet
		case splitGet:
			op.k, op.v = n.entry(op.count/2 + op.s)
			op.pc = splitPut
		case splitPut:
			n.setEntry(op.s, op.k, op.v)
			op.s++
			op.pc = splitGet
			if moved := op.count - op.count/2; op.s == moved {
				n.setHeader(op.leaf, moved, op.next) // an internal node's next is -1
				op.pc = splitHdr
			}
		case splitHdr:
			next := int64(-1)
			if op.leaf {
				next = op.right
			}
			n.setHeader(op.leaf, op.count/2, next)
			op.pc = splitSep
		case splitSep:
			op.sep, _ = n.entry(0)
			op.pc = insertUp

		case insertUp:
			if op.depth == 0 {
				op.root, op.page, op.pc = t.root, t.root, rootMin
				continue
			}
			op.depth--
			op.page, op.pc = op.path[op.depth].page, insertParent
		case insertParent:
			count := op.path[op.depth].count
			idx := n.lowerBound(count, op.sep)
			n.shiftRight(idx, count)
			n.setEntry(idx, op.sep, uint64(op.right))
			op.settle(&n, false, count+1, -1)

		case rootMin:
			leaf, count, _ := n.header()
			if count == 0 {
				op.rootMinKey, op.pc = 0, rootAlloc
				continue
			}
			if k, v := n.entry(0); leaf {
				op.rootMinKey, op.pc = k, rootAlloc
			} else {
				op.page = int64(v)
			}
		case rootAlloc:
			op.page, op.pc = t.alloc(), rootNew
		case rootNew:
			n.setHeader(false, 2, -1)
			n.setEntry(0, op.rootMinKey, uint64(op.root))
			n.setEntry(1, op.sep, uint64(op.right))
			t.root, op.pc = op.page, opDone

		default:
			panic("btree: corrupt operation")
		}
	}
}

// at returns the page the phase at op.pc opens — the split's new sibling
// for its writes, the op's page otherwise —, or -1 for a phase that
// accesses none.
func (op *Op) at() int64 {
	switch op.pc {
	case opDone, lookupRoot, rangeRoot, insertRoot, splitAlloc, insertUp, rootAlloc:
		return -1
	case splitPut, splitSep:
		return op.right
	}
	return op.page
}

// settle ends an insert into n, which now holds count entries: its header
// takes the count, or it overflowed and splits.
func (op *Op) settle(n *node, leaf bool, count int, next int64) {
	if count <= MaxEntries {
		n.setHeader(leaf, count, next)
		op.pc = opDone
		return
	}
	op.leaf, op.count, op.next, op.pc = leaf, count, next, splitAlloc
}
