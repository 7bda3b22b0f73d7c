package btree

import "repro/internal/paging"

// The tree's runtime operations as they were before they became
// resumable: the direct-style bodies, verbatim but for the receiver — the
// recursive insertAt, the callback Range — run on a blocking
// paging.Thread as the reference TestStepperMatchesReference holds Op to.
type refTree struct{ *Tree }

type thread = paging.Thread

func (t refTree) header(ctx thread, page int64) (leaf bool, count int, next int64) {
	flags := t.space.LoadU32(ctx, page*paging.PageSize)
	cnt := t.space.LoadU32(ctx, page*paging.PageSize+4)
	nxt := int64(t.space.LoadU64(ctx, page*paging.PageSize+8))
	return flags&1 == 1, int(cnt), nxt
}

func (t refTree) entry(ctx thread, page int64, slot int) (key, val uint64) {
	off := page*paging.PageSize + hdrSize + int64(slot)*entrySize
	return t.space.LoadU64(ctx, off), t.space.LoadU64(ctx, off+8)
}

func (t refTree) setEntry(ctx thread, page int64, slot int, key, val uint64) {
	off := page*paging.PageSize + hdrSize + int64(slot)*entrySize
	t.space.StoreU64(ctx, off, key)
	t.space.StoreU64(ctx, off+8, val)
}

func (t refTree) setHeader(ctx thread, page int64, leaf bool, count int, next int64) {
	var flags uint32
	if leaf {
		flags = 1
	}
	t.space.StoreU32(ctx, page*paging.PageSize, flags)
	t.space.StoreU32(ctx, page*paging.PageSize+4, uint32(count))
	t.space.StoreU64(ctx, page*paging.PageSize+8, uint64(next))
}

// lowerBound returns the first slot whose key is >= key (binary search
// within the node; single page access pattern).
func (t refTree) lowerBound(ctx thread, page int64, count int, key uint64) int {
	lo, hi := 0, count
	for lo < hi {
		mid := (lo + hi) / 2
		k, _ := t.entry(ctx, page, mid)
		if k < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childFor returns the child page to descend into for key.
func (t refTree) childFor(ctx thread, page int64, count int, key uint64) int64 {
	// Entries hold (minKey, child); pick the last child whose minKey <= key.
	idx := t.lowerBound(ctx, page, count, key)
	if idx < count {
		if k, _ := t.entry(ctx, page, idx); k == key {
			_, c := t.entry(ctx, page, idx)
			return int64(c)
		}
	}
	if idx == 0 {
		_, c := t.entry(ctx, page, 0)
		return int64(c)
	}
	_, c := t.entry(ctx, page, idx-1)
	return int64(c)
}

// Lookup returns the value stored for key.
func (t refTree) Lookup(ctx thread, key uint64) (uint64, bool) {
	page := t.root
	for {
		leaf, count, _ := t.header(ctx, page)
		if leaf {
			idx := t.lowerBound(ctx, page, count, key)
			if idx < count {
				if k, v := t.entry(ctx, page, idx); k == key {
					return v, true
				}
			}
			return 0, false
		}
		if count == 0 {
			return 0, false
		}
		page = t.childFor(ctx, page, count, key)
	}
}

// Range invokes fn for every pair with lo <= key <= hi, ascending, until
// fn returns false. Leaf links make this a sequential scan.
func (t refTree) Range(ctx thread, lo, hi uint64, fn func(key, val uint64) bool) {
	page := t.root
	for {
		leaf, count, _ := t.header(ctx, page)
		if leaf {
			break
		}
		if count == 0 {
			return
		}
		page = t.childFor(ctx, page, count, lo)
	}
	for page >= 0 {
		_, count, next := t.header(ctx, page)
		idx := t.lowerBound(ctx, page, count, lo)
		for ; idx < count; idx++ {
			k, v := t.entry(ctx, page, idx)
			if k > hi {
				return
			}
			if !fn(k, v) {
				return
			}
		}
		page = next
	}
}

// Insert stores (key, value), replacing any existing value. Node splits
// propagate upward; a root split grows the tree.
func (t refTree) Insert(ctx thread, key, val uint64) {
	promoted, newPage := t.insertAt(ctx, t.root, key, val)
	if newPage < 0 {
		return
	}
	// Root split: new root with two children.
	oldRoot := t.root
	oldMin := t.minKey(ctx, oldRoot)
	root := t.alloc()
	t.setHeader(ctx, root, false, 2, -1)
	t.setEntry(ctx, root, 0, oldMin, uint64(oldRoot))
	t.setEntry(ctx, root, 1, promoted, uint64(newPage))
	t.root = root
}

// minKey returns the smallest key reachable from page.
func (t refTree) minKey(ctx thread, page int64) uint64 {
	for {
		leaf, count, _ := t.header(ctx, page)
		if count == 0 {
			return 0
		}
		k, v := t.entry(ctx, page, 0)
		if leaf {
			return k
		}
		_ = k
		page = int64(v)
	}
}

// insertAt inserts into the subtree rooted at page. On split it returns
// the promoted separator key and the new right-sibling page; otherwise
// newPage is -1.
func (t refTree) insertAt(ctx thread, page int64, key, val uint64) (promoted uint64, newPage int64) {
	leaf, count, next := t.header(ctx, page)
	if leaf {
		idx := t.lowerBound(ctx, page, count, key)
		if idx < count {
			if k, _ := t.entry(ctx, page, idx); k == key {
				t.setEntry(ctx, page, idx, key, val) // replace
				return 0, -1
			}
		}
		t.shiftRight(ctx, page, idx, count)
		t.setEntry(ctx, page, idx, key, val)
		count++
		t.size++
		if count <= MaxEntries {
			t.setHeader(ctx, page, true, count, next)
			return 0, -1
		}
		return t.split(ctx, page, true, count, next)
	}

	child := t.childFor(ctx, page, count, key)
	// Keep separators correct for keys below the subtree minimum.
	if k0, _ := t.entry(ctx, page, 0); key < k0 {
		_, c0 := t.entry(ctx, page, 0)
		t.setEntry(ctx, page, 0, key, c0)
	}
	pk, np := t.insertAt(ctx, child, key, val)
	if np < 0 {
		return 0, -1
	}
	idx := t.lowerBound(ctx, page, count, pk)
	t.shiftRight(ctx, page, idx, count)
	t.setEntry(ctx, page, idx, pk, uint64(np))
	count++
	if count <= MaxEntries {
		t.setHeader(ctx, page, false, count, -1)
		return 0, -1
	}
	return t.split(ctx, page, false, count, -1)
}

// shiftRight opens a slot at idx in a node holding count entries.
func (t refTree) shiftRight(ctx thread, page int64, idx, count int) {
	for s := count; s > idx; s-- {
		k, v := t.entry(ctx, page, s-1)
		t.setEntry(ctx, page, s, k, v)
	}
}

// split moves the upper half of an overfull node into a fresh page and
// returns the promoted separator.
func (t refTree) split(ctx thread, page int64, leaf bool, count int, next int64) (uint64, int64) {
	right := t.alloc()
	half := count / 2
	moved := count - half
	for s := 0; s < moved; s++ {
		k, v := t.entry(ctx, page, half+s)
		t.setEntry(ctx, right, s, k, v)
	}
	if leaf {
		t.setHeader(ctx, right, true, moved, next)
		t.setHeader(ctx, page, true, half, right)
	} else {
		t.setHeader(ctx, right, false, moved, -1)
		t.setHeader(ctx, page, false, half, -1)
	}
	sep, _ := t.entry(ctx, right, 0)
	return sep, right
}
