package paging

// Leap-style prefetching (Maruf & Chowdhury, ATC'20 — the paper's
// reference [44] and the prefetcher class DiLOS-family systems carry):
// detect the majority access-stride over a sliding window of recent page
// accesses and prefetch along that trend with an adaptively sized
// window. Random access produces no majority trend, so — unlike fixed
// sequential readahead — Leap wastes no bandwidth on it.

// PrefetchPolicy selects the readahead algorithm; the zero policy
// fetches only on demand.
type PrefetchPolicy int

const (
	// Sequential fetches Config.Prefetch pages following each miss.
	Sequential PrefetchPolicy = iota + 1
	// Leap detects the majority stride over recent accesses and
	// prefetches along it with an adaptive window.
	Leap
)

// String names the policy.
func (p PrefetchPolicy) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Leap:
		return "leap"
	}
	return "none"
}

// leapHistory is the number of accesses considered for trend detection.
const leapHistory = 32

// leapState is the per-space trend detector.
type leapState struct {
	deltas  [leapHistory]int64
	pos     int
	filled  int
	lastVPN int64
	hasLast bool
	streak  int // consecutive faults with a detected trend
}

// record notes an access (hit or miss) for trend detection.
func (l *leapState) record(vpn int64) {
	if l.hasLast {
		d := vpn - l.lastVPN
		if d != 0 {
			l.deltas[l.pos] = d
			l.pos = (l.pos + 1) % leapHistory
			if l.filled < leapHistory {
				l.filled++
			}
		}
	}
	l.lastVPN = vpn
	l.hasLast = true
}

// trend returns the majority stride of the recorded window, or (0,
// false) when no stride commands a majority — the Boyer–Moore majority
// vote Leap uses.
func (l *leapState) trend() (int64, bool) {
	if l.filled < 4 {
		return 0, false
	}
	var cand int64
	count := 0
	for i := 0; i < l.filled; i++ {
		d := l.deltas[i]
		switch {
		case count == 0:
			cand, count = d, 1
		case d == cand:
			count++
		default:
			count--
		}
	}
	// Verify the candidate actually holds a majority.
	n := 0
	for i := 0; i < l.filled; i++ {
		if l.deltas[i] == cand {
			n++
		}
	}
	if 2*n <= l.filled {
		return 0, false
	}
	return cand, true
}

// leapRecord feeds the access stream (hits and misses) into the space's
// detector.
func (m *Manager) leapRecord(s *Space, vpn int64) {
	if m.cfg.PrefetchPolicy != Leap {
		return
	}
	s.leap.record(vpn)
}

// leapPrefetch issues trend prefetches after a demand miss.
func (m *Manager) leapPrefetch(q QPSource, s *Space, vpn int64) {
	stride, ok := s.leap.trend()
	if !ok {
		s.leap.streak = 0
		return
	}
	// Window grows with trend persistence: 4, 8, 16, then 32 pages.
	window := 4 << uint(min(s.leap.streak, 3))
	s.leap.streak++
	for i := 1; i <= window; i++ {
		next := vpn + stride*int64(i)
		if next < 0 || next >= s.Pages() {
			return
		}
		if !m.issueAsync(q, s, next) {
			return
		}
		m.PrefetchIssued.Inc()
	}
}
