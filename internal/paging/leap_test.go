package paging

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLeapTrendDetection(t *testing.T) {
	var l leapState
	// Pure sequential stream: stride 1 majority.
	for v := int64(0); v < 20; v++ {
		l.record(v)
	}
	if d, ok := l.trend(); !ok || d != 1 {
		t.Fatalf("sequential trend = %d,%v, want 1,true", d, ok)
	}
	// Strided stream: stride 3.
	l = leapState{}
	for v := int64(0); v < 60; v += 3 {
		l.record(v)
	}
	if d, ok := l.trend(); !ok || d != 3 {
		t.Fatalf("strided trend = %d,%v, want 3,true", d, ok)
	}
	// Two strides, half the window each: a tie is no majority.
	l = leapState{}
	v := int64(0)
	l.record(v)
	for i := 0; i < 2*leapHistory; i++ {
		v += int64(1 + i%2)
		l.record(v)
	}
	if d, ok := l.trend(); ok {
		t.Fatalf("half-and-half stream produced trend %d", d)
	}
	// Random stream: no majority.
	l = leapState{}
	rng := sim.NewRNG(5)
	for i := 0; i < 64; i++ {
		l.record(rng.Int63n(1 << 20))
	}
	if _, ok := l.trend(); ok {
		t.Fatal("random stream produced a trend")
	}
}

func TestLeapMajorityProperty(t *testing.T) {
	// Property: if more than half of a window's deltas equal d, trend
	// reports exactly d.
	check := func(noise []int8, stride uint8) bool {
		d := int64(stride%7) + 1
		var l leapState
		l.record(0)
		cur := int64(0)
		// Interleave: 2 strided accesses per noise access → stride holds
		// a 2/3 majority.
		for i := 0; i < 24; i++ {
			cur += d
			l.record(cur)
			cur += d
			l.record(cur)
			n := int64(1)
			if i < len(noise) {
				n = int64(noise[i])
			}
			if n == d || n == 0 {
				n = d + 1
			}
			cur += n
			l.record(cur)
		}
		got, ok := l.trend()
		return ok && got == d
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLeapPrefetchesSequentialScan(t *testing.T) {
	r := newRig(t, 128, func(c *Config) { c.PrefetchPolicy = Leap })
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 256*PageSize))
	d := r.harness()
	var b [8]byte
	for pg := int64(0); pg < 80; pg++ {
		d.load(sp, pg*PageSize, b[:])
		d.sleep(sim.Micros(5))
	}
	r.env.Run(sim.Seconds(5))
	if r.mgr.PrefetchIssued.Value() == 0 {
		t.Fatal("Leap issued no prefetches on a sequential scan")
	}
	// Most of the 80 pages must have been absorbed by prefetch: demand
	// faults should be far below the page count.
	if f := r.mgr.Faults.Value(); f > 40 {
		t.Fatalf("demand faults = %d on an 80-page sequential scan with Leap", f)
	}
}

func TestLeapIdleOnRandomAccess(t *testing.T) {
	r := newRig(t, 128, func(c *Config) { c.PrefetchPolicy = Leap })
	sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", 4096*PageSize))
	rng := sim.NewRNG(11)
	d := r.harness()
	var b [8]byte
	for i := 0; i < 100; i++ {
		d.load(sp, rng.Int63n(4096)*PageSize, b[:])
		d.sleep(sim.Micros(5))
	}
	r.env.Run(sim.Seconds(5))
	// Unlike fixed sequential readahead, Leap must not waste bandwidth
	// on a trendless stream.
	if issued := r.mgr.PrefetchIssued.Value(); issued > 10 {
		t.Fatalf("Leap issued %d prefetches on random access", issued)
	}
}

// TestLeapStopsAtTheSpaceEnd: a scan that reaches either end of its
// space prefetches up to that end page and nothing past it: five demand
// faults set the trend, and the three pages left are prefetched.
func TestLeapStopsAtTheSpaceEnd(t *testing.T) {
	const pages = 8
	for _, up := range []bool{true, false} {
		r := newRig(t, 128, func(c *Config) { c.PrefetchPolicy = Leap })
		sp := r.mgr.NewSpace("data", r.node.MustAlloc("data", pages*PageSize))
		d := r.harness()
		var b [8]byte
		for i := int64(0); i < pages; i++ {
			pg := i
			if !up {
				pg = pages - 1 - i
			}
			d.load(sp, pg*PageSize, b[:])
			d.sleep(sim.Micros(5))
		}
		r.env.Run(sim.Seconds(1))
		if issued, faults := r.mgr.PrefetchIssued.Value(), r.mgr.Faults.Value(); issued != 3 || faults != 5 {
			t.Fatalf("scan up=%v: %d prefetches and %d demand faults over %d pages; want 3 and 5",
				up, issued, faults, pages)
		}
	}
}
