package sstable

import (
	"encoding/binary"
	"sort"
	"testing"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/workload/steptest"
)

// harness runs the requests fn queues on a harness thread over a paging rig sized to
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

	fn(steptest.NewRig(mgr).Thread(), tab)
	env.Run(sim.Seconds(300))
	return tab
}

// serve queues m through the table's stepper; done, if set, runs once
// m is answered.
func serve(th *steptest.Thread, tab *Table, m *Msg, done func()) {
	th.Run(tab.StepHandler(), m, func(any, int) {
		if done != nil {
			done()
		}
	})
}

func TestGetFindsExistingKeys(t *testing.T) {
	cfg := DefaultConfig(5000, 128)
	tab := harness(t, cfg, 0.2, func(th *steptest.Thread, tab *Table) {
		for i := int64(0); i < 5000; i += 11 {
			key := recordKey(i)
			r := &Msg{Key: key}
			serve(th, tab, r, func() {
				if !r.Found {
					t.Fatalf("key %d not found", key)
				}
				if r.Digest != tab.verifyGetDigest(key) {
					t.Fatalf("key %d digest mismatch", key)
				}
			})
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
		serve(th, tab, r, func() {
			if r.Found {
				t.Error("absent key reported found")
			}
			// Beyond the last key.
			r.Key = recordKey(5000)
		})
		serve(th, tab, r, func() {
			if r.Found {
				t.Error("out-of-range key reported found")
			}
		})
	})
	if tab.NotFound.Value() != 2 {
		t.Fatalf("notfound = %d, want 2", tab.NotFound.Value())
	}
}

func TestScanReturnsOrderedRange(t *testing.T) {
	cfg := DefaultConfig(5000, 128)
	harness(t, cfg, 0.2, func(th *steptest.Thread, tab *Table) {
		r := &Msg{Key: recordKey(100), Scan: true, Len: 100}
		serve(th, tab, r, func() {
			if r.Count != 100 {
				t.Fatalf("scan count = %d, want 100", r.Count)
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
		})
		serve(th, tab, r, func() {
			if r.Count != 50 {
				t.Errorf("clipped scan count = %d, want 50", r.Count)
			}
		})
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
			serve(th, tab, &Msg{Key: recordKey(rng.Int63n(20000))}, nil)
		}
		env := tab.mgr.Env()
		var t0, getTime, scanTime sim.Time
		const trials = 20
		for i := 0; i < trials; i++ {
			th.Do(func() { t0 = env.Now() })
			serve(th, tab, &Msg{Key: recordKey(rng.Int63n(20000))}, func() {
				getTime += env.Now() - t0
				t0 = env.Now()
			})
			serve(th, tab, &Msg{Key: recordKey(rng.Int63n(19000)), Scan: true, Len: 100}, func() {
				scanTime += env.Now() - t0
			})
		}
		th.Do(func() {
			ratio := float64(scanTime) / float64(getTime)
			if ratio < 15 || ratio > 300 {
				t.Errorf("scan/get service ratio = %.1f (get=%v scan=%v), want the paper's 25-100x dispersion",
					ratio, getTime/trials, scanTime/trials)
			}
		})
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
	// For every probe key from 0 to past the last record, a SCAN starts at
	// the first record with key >= probe, exactly like a reference binary
	// search over the key space. SCAN(1)'s digest is one fold of the key
	// it found.
	cfg := DefaultConfig(3000, 64)
	harness(t, cfg, 1.0, func(th *steptest.Thread, tab *Table) {
		for probe := uint64(0); probe < recordKey(3000)+20; probe++ {
			r := &Msg{Key: probe, Scan: true, Len: 1}
			serve(th, tab, r, func() {
				got := int64(3000)
				if r.Count == 1 {
					basis := uint64(fnvBasis)
					got = int64((r.Digest - basis*fnvPrime) / keyStride)
				}
				want := int64(sort.Search(3000, func(i int) bool { return recordKey(int64(i)) >= probe }))
				if got != want {
					t.Fatalf("probe %d: SCAN starts at record %d, want %d", probe, got, want)
				}
			})
		}
	})
}

func TestBloomNeverFalseNegative(t *testing.T) {
	// Every loaded key passes the bloom filter — a GET finds it.
	cfg := DefaultConfig(2000, 64)
	harness(t, cfg, 1.0, func(th *steptest.Thread, tab *Table) {
		for i := int64(0); i < 2000; i++ {
			r := &Msg{Key: recordKey(i)}
			serve(th, tab, r, func() {
				if !r.Found {
					t.Fatalf("key %d not found", r.Key)
				}
			})
		}
	})
}
