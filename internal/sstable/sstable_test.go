package sstable

import (
	"encoding/binary"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/workload/steptest"
)

// harness runs fn as a harness thread over a paging rig sized to
// localFrac of the table.
func harness(t *testing.T, cfg Config, localFrac float64, fn func(th *steptest.Thread, tab *Table)) *Table {
	t.Helper()
	env := sim.NewEnv(11)
	probe := paging.NewManager(env, paging.DefaultConfig(paging.PageSize))
	sized := New(probe, memnode.New(4<<30), cfg)
	local := int64(localFrac * float64(sized.SpaceSize()))
	if local < 8*paging.PageSize {
		local = 8 * paging.PageSize
	}
	mgr := paging.NewManager(env, paging.DefaultConfig(local))
	tab := New(mgr, memnode.New(4<<30), cfg)
	tab.WarmCache()

	steptest.NewRig(mgr).Go(func(th *steptest.Thread) { fn(th, tab) })
	env.Run(sim.Seconds(300))
	return tab
}

// serve runs one request through the table's stepper.
func serve(th *steptest.Thread, tab *Table, m *Msg) *Msg {
	th.Run(tab.StepHandler(), m)
	return m
}

func TestGetFindsExistingKeys(t *testing.T) {
	cfg := DefaultConfig(5000, 128)
	tab := harness(t, cfg, 0.2, func(th *steptest.Thread, tab *Table) {
		for i := int64(0); i < 5000; i += 11 {
			key := recordKey(i)
			r := &Msg{Key: key}
			if serve(th, tab, r); !r.Found {
				t.Errorf("key %d not found", key)
				return
			}
			if r.Digest != tab.VerifyGetDigest(key) {
				t.Errorf("key %d digest mismatch", key)
				return
			}
		}
	})
	if tab.Mismatches.Value() != 0 || tab.NotFound.Value() != 0 {
		t.Fatalf("mismatches=%d notfound=%d", tab.Mismatches.Value(), tab.NotFound.Value())
	}
}

// TestTableBytesMatchDefinition: New writes values as copies of shared
// images, and every record must still read exactly as recordKey and
// valueByte define it, at value sizes around 64 (the verifying stride)
// and 256, over a key count that is not a multiple of 256.
func TestTableBytesMatchDefinition(t *testing.T) {
	const keys = 1000
	for _, size := range []int{1, 63, 64, 100, 255, 256, 257, 1024, 4000} {
		env := sim.NewEnv(1)
		tab := New(paging.NewManager(env, paging.DefaultConfig(1<<20)), memnode.New(1<<30), DefaultConfig(keys, size))
		data := tab.space.Region().Data
		for i := int64(0); i < keys; i++ {
			rec := data[i*tab.recordSize : (i+1)*tab.recordSize]
			key := recordKey(i)
			if got := binary.LittleEndian.Uint64(rec); got != key {
				t.Fatalf("size %d: record %d holds key %d, want %d", size, i, got, key)
			}
			for b, v := range rec[8:] {
				if v != valueByte(key, b) {
					t.Fatalf("size %d: record %d byte %d = %#x, want %#x", size, i, b, v, valueByte(key, b))
				}
			}
		}
	}
}

func TestGetAbsentKey(t *testing.T) {
	cfg := DefaultConfig(1000, 128)
	tab := harness(t, cfg, 0.5, func(th *steptest.Thread, tab *Table) {
		// keyStride=7, so key 3 does not exist.
		r := &Msg{Key: 3}
		if serve(th, tab, r); r.Found {
			t.Error("absent key reported found")
		}
		// Beyond the last key.
		r.Key = recordKey(5000)
		if serve(th, tab, r); r.Found {
			t.Error("out-of-range key reported found")
		}
	})
	if tab.NotFound.Value() != 2 {
		t.Fatalf("notfound = %d, want 2", tab.NotFound.Value())
	}
}

func TestScanReturnsOrderedRange(t *testing.T) {
	cfg := DefaultConfig(5000, 128)
	harness(t, cfg, 0.2, func(th *steptest.Thread, tab *Table) {
		r := &Msg{Key: recordKey(100), Scan: true, Len: 100}
		if serve(th, tab, r); r.Count != 100 {
			t.Errorf("scan count = %d, want 100", r.Count)
			return
		}
		// Digest must equal folding the expected keys.
		digest := uint64(1469598103934665603)
		for i := int64(100); i < 200; i++ {
			digest = digest*0x100000001B3 + recordKey(i)
		}
		if r.Digest != digest {
			t.Error("scan digest mismatch: wrong records or order")
		}
		// Scan clipped at the end of the table.
		r.Key = recordKey(4950)
		if serve(th, tab, r); r.Count != 50 {
			t.Errorf("clipped scan count = %d, want 50", r.Count)
		}
	})
}

func TestScanCostsDwarfGets(t *testing.T) {
	// The paper's premise: SCAN(100) service time is 25-100x a GET's.
	cfg := DefaultConfig(20000, 1024)
	harness(t, cfg, 0.2, func(th *steptest.Thread, tab *Table) {
		// Warm the (small) bloom and index spaces into steady state, as
		// sustained load would.
		rng := sim.NewRNG(2)
		for i := 0; i < 300; i++ {
			serve(th, tab, &Msg{Key: recordKey(rng.Int63n(20000))})
		}
		var getTime, scanTime sim.Time
		const trials = 20
		for i := 0; i < trials; i++ {
			t0 := tab.mgr.Env().Now()
			serve(th, tab, &Msg{Key: recordKey(rng.Int63n(20000))})
			getTime += tab.mgr.Env().Now() - t0
			t0 = tab.mgr.Env().Now()
			serve(th, tab, &Msg{Key: recordKey(rng.Int63n(19000)), Scan: true, Len: 100})
			scanTime += tab.mgr.Env().Now() - t0
		}
		ratio := float64(scanTime) / float64(getTime)
		if ratio < 15 || ratio > 300 {
			t.Errorf("scan/get service ratio = %.1f (get=%v scan=%v), want the paper's 25-100x dispersion",
				ratio, getTime/trials, scanTime/trials)
		}
	})
}

func TestRequestMixAndClassifier(t *testing.T) {
	env := sim.NewEnv(1)
	mgr := paging.NewManager(env, paging.DefaultConfig(1<<20))
	cfg := DefaultConfig(2000, 128)
	tab := New(mgr, memnode.New(1<<30), cfg)
	rng := sim.NewRNG(9)
	gets, scans := 0, 0
	for i := 0; i < 10000; i++ {
		payload, _ := tab.NextRequest(rng, nil)
		switch tab.Classify(payload) {
		case "GET":
			gets++
		case "SCAN":
			scans++
			sc := payload.(*Msg)
			if sc.Len != 100 {
				t.Fatalf("scan len = %d", sc.Len)
			}
		}
	}
	// 1% scans, binomial: expect ~100±50.
	if scans < 40 || scans > 200 {
		t.Fatalf("scan fraction off: %d/10000", scans)
	}
	if gets+scans != 10000 {
		t.Fatal("classifier lost requests")
	}
}

func TestSeekFindsLowerBound(t *testing.T) {
	// Property: for arbitrary probe keys, a SCAN starts at the first record
	// with key >= probe, exactly like a reference binary search over the
	// key space. SCAN(1)'s digest is one fold of the key it found.
	cfg := DefaultConfig(3000, 64)
	harness(t, cfg, 1.0, func(th *steptest.Thread, tab *Table) {
		check := func(raw uint16) bool {
			probe := uint64(raw) % (recordKey(3000) + 20)
			r := serve(th, tab, &Msg{Key: probe, Scan: true, Len: 1})
			got := int64(3000)
			if r.Count == 1 {
				basis := uint64(fnvBasis)
				got = int64((r.Digest - basis*fnvPrime) / keyStride)
			}
			want := int64(sort.Search(3000, func(i int) bool { return recordKey(int64(i)) >= probe }))
			return got == want
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
			t.Error(err)
		}
	})
}

func TestBloomNeverFalseNegative(t *testing.T) {
	// Property: every loaded key passes the bloom filter — a GET finds it.
	cfg := DefaultConfig(2000, 64)
	harness(t, cfg, 1.0, func(th *steptest.Thread, tab *Table) {
		check := func(raw uint16) bool {
			return serve(th, tab, &Msg{Key: recordKey(int64(raw) % 2000)}).Found
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
			t.Error(err)
		}
	})
}
