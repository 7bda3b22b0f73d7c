package paging

// EvictPolicy selects the page-replacement algorithm.
type EvictPolicy int

const (
	// CLOCK is the default second-chance algorithm (what DiLOS and the
	// Linux-based systems approximate).
	CLOCK EvictPolicy = iota
	// LRU maintains an exact least-recently-used order. Costs a list
	// update per access; the abl-evict ablation quantifies whether the
	// exactness buys anything at MD access patterns.
	LRU
)

// String names the policy.
func (p EvictPolicy) String() string {
	if p == LRU {
		return "LRU"
	}
	return "CLOCK"
}

// lruInit sets up the intrusive LRU list (head = most recent).
func (m *Manager) lruInit() {
	m.lruPrev = make([]int32, len(m.frames))
	m.lruNext = make([]int32, len(m.frames))
	for i := range m.lruPrev {
		m.lruPrev[i], m.lruNext[i] = -1, -1
	}
	m.lruHead, m.lruTail = -1, -1
}

// lruRemove unlinks a frame from the LRU list if present.
func (m *Manager) lruRemove(fi int32) {
	prev, next := m.lruPrev[fi], m.lruNext[fi]
	if prev != -1 {
		m.lruNext[prev] = next
	} else if m.lruHead == fi {
		m.lruHead = next
	}
	if next != -1 {
		m.lruPrev[next] = prev
	} else if m.lruTail == fi {
		m.lruTail = prev
	}
	m.lruPrev[fi], m.lruNext[fi] = -1, -1
}

// lruPushFront makes a frame the most recently used.
func (m *Manager) lruPushFront(fi int32) {
	m.lruPrev[fi], m.lruNext[fi] = -1, m.lruHead
	if m.lruHead != -1 {
		m.lruPrev[m.lruHead] = fi
	}
	m.lruHead = fi
	if m.lruTail == -1 {
		m.lruTail = fi
	}
}

// touch records an access to a resident page under the active policy.
func (m *Manager) touch(e *pte) {
	*e |= pteRef
	if m.cfg.Policy == LRU {
		fi := e.index()
		if m.lruHead == fi {
			return
		}
		m.lruRemove(fi)
		m.lruPushFront(fi)
	}
}

// installed records that a frame became resident.
func (m *Manager) installed(fi int32) {
	if m.cfg.Policy == LRU {
		m.lruPushFront(fi)
	}
}

// unmapped records that a frame stopped being resident.
func (m *Manager) unmapped(fi int32) {
	if m.cfg.Policy == LRU {
		m.lruRemove(fi)
	}
}

// selectVictims picks up to max resident frames to evict under the
// active policy.
func (m *Manager) selectVictims(max int) []int32 {
	if m.cfg.Policy == LRU {
		return m.lruSelect(max)
	}
	return m.clockSelect(max)
}

// lruSelect takes victims from the cold end of the LRU list, which
// holds exactly the resident frames (installed links a frame, unmapped
// unlinks it).
func (m *Manager) lruSelect(max int) []int32 {
	out := m.victimBuf[:0]
	for fi := m.lruTail; fi != -1 && len(out) < max; fi = m.lruPrev[fi] {
		out = append(out, fi)
	}
	m.victimBuf = out
	return out
}
