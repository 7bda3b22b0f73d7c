package sim

import (
	"math/bits"

	"repro/internal/simcheck"
)

// wheel is the simulator's event queue: a hierarchical timing wheel
// (calendar queue) ordered by (at, seq), replacing the earlier binary
// min-heap so that schedule and dispatch are O(1) regardless of how many
// events are pending — at rack scale a single run carries hundreds of
// thousands of QP timers, per-stripe write-backs, and fault timers, and
// the queue is the hottest path in the repository.
//
// Layout. Level 0 has wheelSize one-cycle buckets covering the aligned
// window of wheelSize cycles around the dispatch cursor `low`; level l
// has wheelSize buckets of 2^(l·wheelBits) cycles covering the aligned
// window of 2^((l+1)·wheelBits) cycles. Seven 10-bit levels span 2^70
// cycles, more than all of Time, so there is no separate overflow
// structure — the top level is the overflow ladder. An event at time T
// lives at the
// lowest level whose current window contains T; as `low` advances into a
// higher-level bucket, that bucket cascades down (each event is replaced
// at its new, strictly lower level), so every event cascades at most
// wheelLevels-1 times: O(1) amortized. Per-level occupancy bitmaps make
// skipping empty buckets a TrailingZeros64 scan rather than a walk.
//
// Near-future fast path: the dominant schedule pattern — fixed NIC, link
// and paging latencies a few hundred cycles out — lands inside level 0's
// 1024-cycle window and is placed with one XOR, one compare, and one
// append; no Len64, no cascading, ever. The bucket count per level
// (wheelBits) is a cache trade-off: real runs are sparse (events ~100
// cycles apart over millisecond horizons), so giant levels thrash the
// cache during bitmap scans and cascades, while tiny levels cascade too
// often. 1024 buckets keeps each level's header+bitmap ~24 KiB — L2
// resident — and was measured fastest end-to-end (both sweeps are kept
// in BENCH_sim.json, the history file; the live per-event number is
// sim.rig_event_ns of the repository benchmark, BENCHMARK.json).
//
// Determinism. Dispatch order is bit-identical to the heap's (at, seq)
// order, argued in two parts (see DESIGN.md for the long form):
//
//   - Across distinct times, level-0 buckets are one cycle wide and the
//     bitmap scan visits them in time order, so ordering is exact.
//   - Within one time T, events fire in seq (schedule) order because
//     every bucket slice is appended to in seq order: placement is a
//     pure function of (T, low), `low` only enters a bucket's span by
//     cascading that bucket first, and cascading preserves slice order —
//     so an event pushed later (higher seq) can never end up ahead of an
//     earlier one in any bucket it shares.
//
// Single-next-event cache: self-rescheduling timers (a lone retransmit
// timer, the near-empty queue between bursts) push one event into an
// otherwise empty queue and immediately pop it. The heap's best case —
// one root swap — was faster than walking even one wheel bucket, so a
// queue holding exactly one event keeps it in a register-like `next`
// slot in front of the levels: filled on push into an empty queue,
// flushed into the levels (in push order, preserving per-bucket seq
// order) the moment a second event arrives, drained by pops before any
// bucket is touched. Consuming it leaves the cursor untouched — the
// cached event never visited the levels, so bucket placement stays
// consistent relative to the cursor the remaining events were filed
// under.
//
// Storage. The zero value is an empty queue with the cursor at time 0;
// a level's bucket headers are allocated when it is first used. Level
// 0's buckets are then carved from one slab, bucketCap events each, and
// keep their capacity across drains. Upper-level buckets are emptied
// only by cascade, which sets the bucket to nil and returns its array to
// `spare`; an upper bucket filling from nil takes the last spare array,
// or a new one of bucketCap events when there is none. Once the arrays
// in circulation have grown to the run's bucket sizes, the wheel
// allocates nothing.
type wheel struct {
	low   Time // dispatch cursor: no levelled pending event is earlier
	count int  // pending events (including the cached next)
	// maxCount is the high-water mark of count (Env.MaxPending).
	// Maintained on the slow push path only, so a queue that never held
	// two events at once leaves it 0; Env.MaxPending reconstructs that
	// case (high water exactly 1) from seq > 0.
	maxCount int
	headIdx  int // level-0 bucket being drained (guards head)
	head     int // next undispatched element of that bucket
	next     event
	hasNext  bool // next holds the queue's only pending event
	levels   [wheelLevels]wheelLevel
	spare    [][]event // zeroed, empty arrays of cascaded upper-level buckets
}

const (
	wheelBits   = 10              // bits per level; 1024 buckets
	wheelSize   = 1 << wheelBits  // buckets per level
	wheelMask   = wheelSize - 1   // bucket index mask
	wheelLevels = 7               // 7×10 = 70 bits: covers all of Time
	wheelWords  = wheelSize / 64  // occupancy bitmap words per level
	bucketCap   = 4               // events a bucket's first array holds
	maxTime     = Time(1<<63 - 1) // RunAll's "until"
)

type wheelLevel struct {
	occ     [wheelWords]uint64 // bit i set ⇔ buckets[i] has undrained events
	sum     uint16             // bit w set ⇔ occ[w] != 0; makes scans O(1)
	buckets [][]event          // nil until the level is first used
}

// push enqueues e. e.at must be ≥ the dispatch cursor, which Env
// guarantees by rejecting scheduling in the past. The body is kept
// small enough to inline into Env.At; a push into an empty queue — the
// self-rescheduling-timer shape — is a branch and a copy, no bucket or
// bitmap work at all. A consumed or flushed cache slot is not zeroed
// (the next fill overwrites it wholesale), so at most one stale event's
// fn outlives its dispatch.
func (w *wheel) push(e event) {
	w.count++
	if w.count == 1 {
		w.next, w.hasNext = e, true
		return
	}
	w.pushSlow(e)
}

func (w *wheel) pushSlow(e event) {
	if w.count > w.maxCount {
		w.maxCount = w.count
	}
	if w.hasNext {
		// A second event arrived: flush the cached one into the levels
		// ahead of the newcomer. The cache must not stay occupied while
		// the levels fill — a later displacement would append the
		// incumbent behind same-time events already in its bucket,
		// breaking seq order — so it serves exactly the one-pending-event
		// case. Flushing in push order keeps every bucket seq-sorted.
		w.hasNext = false
		w.place(w.next)
	}
	// place's level-0 fast path, manually inlined (the append pushes
	// place past the inlining budget): with push inlined into At, a
	// steady-state deep push is exactly one call deep, as the pre-cache
	// wheel's was.
	if diff := uint64(e.at ^ w.low); diff < wheelSize {
		lv := &w.levels[0]
		if lv.buckets != nil {
			idx := int(e.at) & wheelMask
			lv.buckets[idx] = append(lv.buckets[idx], e)
			lv.occ[idx>>6] |= 1 << (idx & 63)
			lv.sum |= 1 << (idx >> 6)
			return
		}
	}
	w.placeSlow(e)
}

// place files e into the lowest level whose current window contains
// e.at. Shared by pushSlow and cascade (which must not re-count). The
// level-0 case — both direct near-future pushes and every cascaded
// event's final hop — is specialized to skip the level computation and
// variable shift, and is kept within the inlining budget so a deep push
// is exactly one call (pushSlow) from At: level 0's lazy bucket
// allocation falls through to placeSlow, which handles any level
// including 0 (for e.at == low, Len64(0)-1 = -1 truncates to level 0).
func (w *wheel) place(e event) {
	if diff := uint64(e.at ^ w.low); diff < wheelSize {
		lv := &w.levels[0]
		if lv.buckets != nil {
			idx := int(e.at) & wheelMask
			lv.buckets[idx] = append(lv.buckets[idx], e)
			lv.occ[idx>>6] |= 1 << (idx & 63)
			lv.sum |= 1 << (idx >> 6)
			return
		}
	}
	w.placeSlow(e)
}

func (w *wheel) placeSlow(e event) {
	l := (bits.Len64(uint64(e.at^w.low)) - 1) / wheelBits
	lv := &w.levels[l]
	if lv.buckets == nil {
		lv.buckets = make([][]event, wheelSize)
		if l == 0 {
			slab := make([]event, wheelSize*bucketCap)
			for i := range lv.buckets {
				lv.buckets[i] = slab[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
			}
		}
	}
	idx := int(uint64(e.at)>>(uint(l)*wheelBits)) & wheelMask
	bkt := lv.buckets[idx]
	if bkt == nil { // only upper-level buckets are ever nil
		if n := len(w.spare); n > 0 {
			bkt, w.spare = w.spare[n-1], w.spare[:n-1]
		} else {
			bkt = make([]event, 0, bucketCap)
		}
	}
	lv.buckets[idx] = append(bkt, e)
	lv.occ[idx>>6] |= 1 << (idx & 63)
	lv.sum |= 1 << (idx >> 6)
}

// popUntil removes and returns the earliest pending event if its time is
// ≤ until; otherwise it returns false and leaves the event queued. The
// cursor never advances past until, so events may still be scheduled
// anywhere ≥ until afterwards. Consuming the cached event leaves the
// cursor untouched too: that event never visited the levels, so bucket
// placement stays consistent relative to the cursor the remaining
// events were filed under.
func (w *wheel) popUntil(until Time) (event, bool) {
	if w.hasNext && w.next.at <= until {
		w.hasNext = false
		w.count--
		return w.next, true
	}
	return w.popSlow(until)
}

// popSlow handles the empty-cache case — and, because a cached event only
// reaches it when its time is past until, the cached-but-not-due case,
// which must return before the level scan (the cached event is not in any
// bucket, so the scan loop would find count > 0 with no levelled events
// and panic in advance).
func (w *wheel) popSlow(until Time) (event, bool) {
	if w.hasNext {
		return event{}, false
	}
	// Mid-drain fast path: head > 0 means bucket headIdx of level 0 is
	// partially drained (the cursor already sits on its time), so the
	// next event is bkt[head] — no bitmap scan, no cursor math. head is
	// the discriminator rather than headIdx so the zero-value wheel
	// (headIdx 0, never drained) takes the scan path below; every drain
	// completion and cascade resets head to 0 along with headIdx.
	// Same-time events pushed while draining append to the same bucket
	// and are picked up because len(bkt) is re-read each pop.
	lv := &w.levels[0]
	if w.head == 0 {
		// Settle the cursor on the next occupied bucket.
		for {
			if w.count == 0 {
				return event{}, false
			}
			if lv.buckets != nil {
				if i, ok := lv.scan(int(w.low) & wheelMask); ok {
					at := (w.low &^ Time(wheelMask)) | Time(i)
					if at > until {
						return event{}, false
					}
					w.low = at
					w.headIdx = i
					break
				}
			}
			if !w.advance(until) {
				return event{}, false
			}
		}
	} else if w.low > until {
		return event{}, false
	}
	// Drain one event from bucket headIdx. Only fn is cleared from the
	// drained slot — it is what pins memory; at and seq are inert.
	i := w.headIdx
	bkt := lv.buckets[i]
	ev := bkt[w.head]
	bkt[w.head].fn = nil
	w.head++
	if w.head == len(bkt) {
		lv.buckets[i] = bkt[:0]
		lv.occ[i>>6] &^= 1 << (i & 63)
		if lv.occ[i>>6] == 0 {
			lv.sum &^= 1 << (i >> 6)
		}
		w.headIdx, w.head = -1, 0
	}
	w.count--
	return ev, true
}

// peekBeyond reports whether every pending event is strictly later than
// t — the query behind the clock-advance fast path in Task.Sleep/Yield.
// It mirrors popSlow's cursor settling (including advance's cascades,
// which a pop at the same point would perform identically) but drains
// nothing, so event order is untouched.
func (w *wheel) peekBeyond(t Time) bool {
	if w.count == 0 {
		return true
	}
	if w.hasNext {
		return w.next.at > t
	}
	if w.head != 0 {
		return w.low > t
	}
	lv := &w.levels[0]
	for {
		if lv.buckets != nil {
			if i, ok := lv.scan(int(w.low) & wheelMask); ok {
				return (w.low&^Time(wheelMask))|Time(i) > t
			}
		}
		if !w.advance(t) {
			return true
		}
	}
}

// advance pulls the next occupied bucket from the lowest level that has
// one down into the levels below it, moving the cursor to that bucket's
// start. It returns false — leaving the cursor ≤ until — if the next
// pending event lies in a bucket starting after until. Only called with
// level 0 empty from the cursor onward.
func (w *wheel) advance(until Time) bool {
	for l := 1; l < wheelLevels; l++ {
		// The first candidate bucket is the one just past the window the
		// levels below cover. If that crosses into the next level-l
		// window, this level is exhausted too (and, by the placement
		// invariant, empty): move up.
		below := (w.low | Time(uint64(1)<<(uint(l)*wheelBits)-1)) + 1
		from := int(uint64(below)>>(uint(l)*wheelBits)) & wheelMask
		if from == 0 {
			continue
		}
		lv := &w.levels[l]
		if lv.buckets == nil {
			continue
		}
		j, ok := lv.scan(from)
		if !ok {
			continue
		}
		shift := uint(l+1) * wheelBits // ≥ 64 at the top level: mask is all ones
		windowMask := uint64(1)<<shift - 1
		start := Time(uint64(w.low)&^windowMask | uint64(j)<<(uint(l)*wheelBits))
		if start > until {
			return false
		}
		w.cascade(lv, j, start)
		return true
	}
	simcheck.Fail(simcheck.New("sim/wheel-count",
		"wheel has pending events but found none to dispatch").
		With("count", w.count).With("low", int64(w.low)))
	return false
}

// cascade re-files every event of level-l bucket j into the levels below
// it, advancing the cursor to the bucket's start time. Slice order — and
// with it seq order among same-time events — is preserved.
func (w *wheel) cascade(lv *wheelLevel, j int, start Time) {
	w.low = start
	w.headIdx, w.head = -1, 0
	lv.occ[j>>6] &^= 1 << (j & 63)
	if lv.occ[j>>6] == 0 {
		lv.sum &^= 1 << (j >> 6)
	}
	bkt := lv.buckets[j]
	lv.buckets[j] = nil // re-placement files strictly lower, never here
	if simcheck.Mut("sim-cascade-drop") {
		// Injected bug (mutation builds only): lose the bucket's last
		// event during a cascade. The wheel-count oracle must catch the
		// count/contents divergence.
		bkt = bkt[:len(bkt)-1]
	}
	for i := range bkt {
		w.place(bkt[i])
		bkt[i] = event{}
	}
	// Donated only now: re-placement may fill an empty bucket one level
	// down, which must not be handed the array being walked.
	w.spare = append(w.spare, bkt[:0])
	if simcheck.Mut("sim-spare-keep") {
		// Injected bug (mutation builds only): the bucket keeps the array
		// it donated, so two buckets can come to share one. The wheel
		// oracles must see the empty bucket still holding capacity, or the
		// events one bucket overwrote in the other.
		lv.buckets[j] = bkt[:0]
	}
}

// scan returns the index of the first occupied bucket ≥ from, if any.
// Buckets below the current window's cursor position are always empty,
// so the scan never needs to wrap. The summary word makes it O(1): one
// masked occ probe, then a TrailingZeros16 jump straight to the next
// non-empty word — sparse windows cost two loads instead of a 16-word
// walk, which measurably mattered at real runs' ~100-cycle event gaps.
func (lv *wheelLevel) scan(from int) (int, bool) {
	wi := from >> 6
	word := lv.occ[wi] &^ (uint64(1)<<(from&63) - 1)
	if word != 0 {
		return wi<<6 + bits.TrailingZeros64(word), true
	}
	rest := lv.sum >> (uint(wi) + 1)
	if rest == 0 {
		return 0, false
	}
	wi += 1 + bits.TrailingZeros16(rest)
	return wi<<6 + bits.TrailingZeros64(lv.occ[wi]), true
}
