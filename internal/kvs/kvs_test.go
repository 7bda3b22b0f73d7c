package kvs

import (
	"testing"
	"testing/quick"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/workload/steptest"
)

// harness runs fn as a harness thread over a paging rig sized to
// localFrac of the store.
func harness(t *testing.T, cfg Config, localFrac float64, fn func(th *steptest.Thread, s *Store)) *Store {
	t.Helper()
	env := sim.NewEnv(7)
	node := memnode.New(4 << 30)
	// Build the store against a provisional manager to learn its size.
	probe := paging.NewManager(env, paging.DefaultConfig(paging.PageSize))
	sized := New(probe, memnode.New(4<<30), cfg)
	local := int64(localFrac * float64(sized.SpaceSize()))
	if local < 8*paging.PageSize {
		local = 8 * paging.PageSize
	}
	mgr := paging.NewManager(env, paging.DefaultConfig(local))
	s := New(mgr, node, cfg)
	s.WarmCache()

	steptest.NewRig(mgr).Go(func(th *steptest.Thread) { fn(th, s) })
	env.Run(sim.Seconds(120))
	return s
}

func TestGetReturnsCorrectValues(t *testing.T) {
	cfg := DefaultConfig(5000, 128)
	s := harness(t, cfg, 0.2, func(th *steptest.Thread, s *Store) {
		for key := uint64(0); key < 5000; key += 7 {
			resp, _ := th.Run(s.StepHandler(), &Msg{Key: key})
			v := resp.(*Msg)
			if !v.Found {
				t.Errorf("key %d not found", key)
				return
			}
			if v.Digest != s.VerifyDigest(key) {
				t.Errorf("key %d digest mismatch", key)
				return
			}
		}
	})
	if s.Mismatches.Value() != 0 || s.Misses.Value() != 0 {
		t.Fatalf("mismatches=%d misses=%d", s.Mismatches.Value(), s.Misses.Value())
	}
}

// TestLoadBytesMatchDefinition: load writes items as copies of shared
// images, and every item byte must still read exactly as valueByte
// defines a loaded value (salt 0), at value sizes around 64 (the
// verifying stride) and 256, over a key count that is not a multiple of
// 256.
func TestLoadBytesMatchDefinition(t *testing.T) {
	const keys = 1000
	for _, size := range []int{1, 63, 64, 100, 255, 256, 257, 1024, 4000} {
		env := sim.NewEnv(1)
		s := New(paging.NewManager(env, paging.DefaultConfig(1<<20)), memnode.New(1<<30), DefaultConfig(keys, size))
		data := s.items.Region().Data
		for key := uint64(0); key < keys; key++ {
			for i, v := range data[int(key)*size : int(key+1)*size] {
				if v != valueByte(key, 0, i) {
					t.Fatalf("size %d: key %d byte %d = %#x, want %#x", size, key, i, v, valueByte(key, 0, i))
				}
			}
		}
	}
}

func TestSetThenGetRoundTrip(t *testing.T) {
	cfg := DefaultConfig(2000, 128)
	harness(t, cfg, 0.2, func(th *steptest.Thread, s *Store) {
		resp, _ := th.Run(s.StepHandler(), &Msg{Key: 42, Set: true, Salt: 0xA7})
		setV := *resp.(*Msg)
		if !setV.Found {
			t.Error("SET of existing key failed")
			return
		}
		resp, _ = th.Run(s.StepHandler(), &Msg{Key: 42})
		getV := resp.(*Msg)
		if !getV.Found || getV.Digest != setV.Digest {
			t.Errorf("GET after SET: %+v vs SET %+v", getV, setV)
		}
		if s.Mismatches.Value() != 0 {
			t.Errorf("mismatches = %d", s.Mismatches.Value())
		}
	})
}

func TestGetsFaultAtLowLocalMemory(t *testing.T) {
	cfg := DefaultConfig(20000, 128)
	var faults int64
	s := harness(t, cfg, 0.2, func(th *steptest.Thread, s *Store) {
		rng := sim.NewRNG(3)
		for i := 0; i < 500; i++ {
			key := uint64(rng.Int63n(20000))
			resp, _ := th.Run(s.StepHandler(), &Msg{Key: key})
			if !resp.(*Msg).Found {
				t.Errorf("key %d missing", key)
				return
			}
		}
		faults = s.mgr.Faults.Value()
	})
	if s.Mismatches.Value() != 0 {
		t.Fatal("value corruption")
	}
	// ~80% of uniform GETs should fault with 20% residency.
	if faults < 250 {
		t.Fatalf("faults = %d, want roughly 0.8 per GET", faults)
	}
}

func TestNextRequestMixAndSizes(t *testing.T) {
	cfg := DefaultConfig(1000, 1024)
	cfg.GetRatio = 0.5
	env := sim.NewEnv(1)
	mgr := paging.NewManager(env, paging.DefaultConfig(1<<20))
	s := New(mgr, memnode.New(4<<30), cfg)
	rng := sim.NewRNG(5)
	gets, sets := 0, 0
	for i := 0; i < 2000; i++ {
		payload, size := s.NextRequest(rng, nil)
		if !payload.(*Msg).Set {
			gets++
			if size != 64+KeySize {
				t.Fatalf("GET size = %d", size)
			}
		} else {
			sets++
			if size != 64+KeySize+1024 {
				t.Fatalf("SET size = %d", size)
			}
		}
	}
	if gets < 800 || sets < 800 {
		t.Fatalf("mix off: gets=%d sets=%d", gets, sets)
	}
}

func TestCapacitySizing(t *testing.T) {
	env := sim.NewEnv(1)
	mgr := paging.NewManager(env, paging.DefaultConfig(1<<20))
	s := New(mgr, memnode.New(4<<30), DefaultConfig(1000, 128))
	if s.capacity&(s.capacity-1) != 0 {
		t.Fatal("capacity not a power of two")
	}
	if float64(1000) > 0.7*float64(s.capacity) {
		t.Fatal("load factor exceeded")
	}
	if s.slotSize != 8+56+8 {
		t.Fatalf("slot size = %d", s.slotSize)
	}
	// Items live out of line: total footprint covers both spaces.
	if s.SpaceSize() < s.capacity*s.slotSize+1000*128 {
		t.Fatalf("space size = %d too small", s.SpaceSize())
	}
}

func TestKeyBytesInjective(t *testing.T) {
	// Property: distinct ids produce distinct canonical keys (the first
	// 8 bytes embed the id), and the encoding is deterministic.
	check := func(a, b uint64) bool {
		var ka, kb, ka2 [KeySize]byte
		keyBytes(a, ka[:])
		keyBytes(b, kb[:])
		keyBytes(a, ka2[:])
		if ka != ka2 {
			return false
		}
		return (a == b) == (ka == kb)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDigestMatchesSaltedContent(t *testing.T) {
	// Property: the digest computed from generated value bytes equals
	// the closed-form digest for any (key, salt).
	check := func(key uint64, salt byte) bool {
		const n = 256
		digest := uint64(salt) + 1
		for i := 0; i < n; i += 64 {
			digest = digest*0x100000001B3 + uint64(valueByte(key, salt, i))
		}
		return digest == valueDigest(key, salt, n)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHashSpreadsSlots(t *testing.T) {
	// Sequential ids must spread across the table, not cluster: count
	// collisions in the low bits.
	const keys = 1 << 14
	seen := make(map[int64]int)
	maxChain := 0
	for k := uint64(0); k < keys; k++ {
		slot := int64(hash(k)) & (keys*2 - 1)
		seen[slot]++
		if seen[slot] > maxChain {
			maxChain = seen[slot]
		}
	}
	if maxChain > 6 {
		t.Fatalf("hash clusters: %d ids in one slot", maxChain)
	}
}
