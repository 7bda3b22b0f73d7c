package sim

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/simcheck"
)

// TestEventIsThreeWords: an event is {at, seq, fn}, the record every
// push copies and every bucket slot holds: two 8-byte fields and one
// pointer, so 24 bytes on a 64-bit architecture and 20 on a 32-bit one.
func TestEventIsThreeWords(t *testing.T) {
	if n, want := unsafe.Sizeof(event{}), 16+unsafe.Sizeof(uintptr(0)); n != want {
		t.Fatalf("sizeof(event) = %d bytes, want %d", n, want)
	}
}

// TestWheelFarFutureCascades exercises events that start several levels
// up and must cascade down as the cursor approaches them.
func TestWheelFarFutureCascades(t *testing.T) {
	var w wheel
	times := []Time{
		1,                          // level 0
		wheelSize + 5,              // level 1
		wheelSize * wheelSize * 3,  // level 2
		Time(1) << (4 * wheelBits), // level 4
		Time(1)<<(6*wheelBits) + 9, // top level
	}
	for i, at := range times {
		w.push(event{at: at, seq: uint64(i + 1)})
	}
	var got []Time
	for {
		ev, ok := w.popUntil(maxTime)
		if !ok {
			break
		}
		got = append(got, ev.at)
	}
	for i := range times {
		if got[i] != times[i] {
			t.Fatalf("dispatch %d: got t=%d, want %d (full order %v)", i, got[i], times[i], got)
		}
	}
	if w.count != 0 {
		t.Fatalf("count %d after drain", w.count)
	}
}

// TestCheckWheelSeesSharedSpare: a bucket holding an array that is also
// on the spare list — the state a cascade that donates its array but
// keeps it leaves — is a sim/wheel-spare violation, and the healthy
// wheel it was made from is not.
func TestCheckWheelSeesSharedSpare(t *testing.T) {
	e := NewEnv(1)
	for _, at := range []Time{3 * wheelSize, 5 * wheelSize, 9 * wheelSize} {
		e.At(at, func() {})
	}
	e.Run(6 * wheelSize) // two level-1 cascades
	e.CheckWheel()
	if len(e.q.spare) == 0 {
		t.Fatal("no cascaded array on the spare list")
	}
	e.q.levels[1].buckets[2] = e.q.spare[0]
	defer func() {
		v, ok := simcheck.AsViolation(recover())
		if !ok || !strings.HasPrefix(v.Error(), "sim/wheel-spare") {
			t.Fatalf("want a sim/wheel-spare violation, got %v", v)
		}
	}()
	e.CheckWheel()
}

// TestWheelPushAtCursorAfterDry reproduces the Env.Run boundary: a
// bounded pop runs dry, the clock jumps to until, and new events are
// scheduled at exactly that time — inside the gap between the wheel's
// cursor and the deadline it never passed.
func TestWheelPushAtCursorAfterDry(t *testing.T) {
	var w wheel
	w.push(event{at: 10, seq: 1})
	if ev, ok := w.popUntil(100); !ok || ev.at != 10 {
		t.Fatalf("popUntil(100) = %v,%v", ev, ok)
	}
	if _, ok := w.popUntil(100); ok {
		t.Fatal("queue should be dry")
	}
	// Clock is now 100; schedule at exactly 100, at 100+1, and far out.
	w.push(event{at: 100, seq: 2})
	w.push(event{at: 101, seq: 3})
	w.push(event{at: 100, seq: 4}) // same-cycle tie arrives later
	want := []struct {
		at  Time
		seq uint64
	}{{100, 2}, {100, 4}, {101, 3}}
	for _, wv := range want {
		ev, ok := w.popUntil(maxTime)
		if !ok || ev.at != wv.at || ev.seq != wv.seq {
			t.Fatalf("got (%d,%d,%v), want (%d,%d)", ev.at, ev.seq, ok, wv.at, wv.seq)
		}
	}
}

// TestWheelWindowBoundaries places events exactly at aligned window
// edges, where placement flips from level l to level l+1.
func TestWheelWindowBoundaries(t *testing.T) {
	var w wheel
	var want []Time
	var seq uint64
	for l := 1; l <= 4; l++ {
		span := Time(1) << uint(l*wheelBits)
		for _, at := range []Time{span - 1, span, span + 1, 2*span - 1, 2 * span} {
			seq++
			w.push(event{at: at, seq: seq})
			want = append(want, at)
		}
	}
	// Sort expected times (stable: equal times keep push order, and seq
	// was assigned in push order).
	for i := range want {
		for j := i + 1; j < len(want); j++ {
			if want[j] < want[i] {
				want[i], want[j] = want[j], want[i]
			}
		}
	}
	var prev event
	for i, wantAt := range want {
		ev, ok := w.popUntil(maxTime)
		if !ok || ev.at != wantAt {
			t.Fatalf("dispatch %d: got (%d,%v), want t=%d", i, ev.at, ok, wantAt)
		}
		if ev.at == prev.at && ev.seq < prev.seq {
			t.Fatalf("tie broken out of seq order: %d before %d at t=%d", prev.seq, ev.seq, ev.at)
		}
		prev = ev
	}
}

// TestWheelMassiveTies piles thousands of events onto a single cycle —
// including via a cascade from a higher level — and checks strict seq
// order.
func TestWheelMassiveTies(t *testing.T) {
	var w wheel
	const at = wheelSize * 7 // starts at level 1, cascades down once
	for s := uint64(1); s <= 5000; s++ {
		w.push(event{at: at, seq: s})
	}
	for s := uint64(1); s <= 5000; s++ {
		ev, ok := w.popUntil(maxTime)
		if !ok || ev.at != at || ev.seq != s {
			t.Fatalf("got (%d,%d,%v), want (%d,%d)", ev.at, ev.seq, ok, at, s)
		}
	}
}

// TestWheelInterleavedDispatchAndPush pushes new near-future events from
// between pops, as event callbacks do, including back into the bucket
// currently being drained.
func TestWheelInterleavedDispatchAndPush(t *testing.T) {
	var w wheel
	w.push(event{at: 5, seq: 1})
	w.push(event{at: 5, seq: 2})
	if ev, _ := w.popUntil(maxTime); ev.seq != 1 {
		t.Fatalf("first pop seq %d", ev.seq)
	}
	// The bucket for t=5 is mid-drain; a callback schedules another
	// event for the same cycle.
	w.push(event{at: 5, seq: 3})
	if ev, _ := w.popUntil(maxTime); ev.seq != 2 {
		t.Fatalf("second pop seq %d", ev.seq)
	}
	if ev, _ := w.popUntil(maxTime); ev.seq != 3 {
		t.Fatalf("third pop seq %d", ev.seq)
	}
}

// TestEnvMaxPending checks the pending-event high-water accounting
// (sim.max_pending in a system's counter registry).
func TestEnvMaxPending(t *testing.T) {
	e := NewEnv(1)
	for i := 0; i < 10; i++ {
		e.At(Time(100+i), func() {})
	}
	if got := e.MaxPending(); got != 10 {
		t.Fatalf("MaxPending %d, want 10", got)
	}
	e.RunAll()
	if got := e.MaxPending(); got != 10 {
		t.Fatalf("MaxPending after drain %d, want 10", got)
	}
}

// TestEnvRunGapScheduling checks the public-API version of the
// cursor-vs-until gap: Run stops at until with the queue non-dry, the
// caller schedules between until and the next event, and a second Run
// dispatches everything in time order.
func TestEnvRunGapScheduling(t *testing.T) {
	e := NewEnv(1)
	var order []Time
	note := func() { order = append(order, e.Now()) }
	e.At(1000, note)
	e.Run(500) // queue not dry: 1000 is beyond the deadline
	if e.Now() != 500 {
		t.Fatalf("now %d, want 500", e.Now())
	}
	e.At(600, note) // in the gap between the cursor and the pending event
	e.At(500, note) // at exactly now
	e.RunAll()
	want := []Time{500, 600, 1000}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}
