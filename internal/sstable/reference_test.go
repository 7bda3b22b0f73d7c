package sstable

import (
	"encoding/binary"
	"sort"

	"repro/internal/workload"
)

// The table's request logic as it was before it became a stepper: the
// direct-style bodies, verbatim, run on workload.Blocking as the
// reference TestStepperMatchesReference holds the stepper to.

// bloomTest probes the paged bloom filter.
func (t *Table) bloomTest(ctx workload.Ctx, key uint64) bool {
	for _, h := range bloomHashes(key) {
		ctx.Compute(t.cfg.CompareCost)
		bit := int64(h % uint64(t.bloomBits))
		var b [1]byte
		t.bloomSpace.Load(ctx, bit/8, b[:])
		if b[0]&(1<<uint(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// seek returns the record index of the first record with key ≥ key,
// charging index-search compute.
func (t *Table) seek(ctx workload.Ctx, key uint64) int64 {
	// Binary search over the paged sparse index: each probe is a paged
	// load, so deep levels fault while hot upper levels stay resident.
	lo := int64(sort.Search(int(t.indexLen), func(i int) bool {
		ctx.Compute(t.cfg.CompareCost)
		return t.indexSpace.LoadU64(ctx, int64(i)*8) >= key
	}))
	ctx.Compute(t.cfg.ParseCost / 4)
	// Back off one interval (the target may precede index[lo]) and scan
	// records through paged memory.
	start := (lo - 1) * int64(t.cfg.IndexInterval)
	if start < 0 {
		start = 0
	}
	var hdr [8]byte
	for i := start; i < t.cfg.Keys; i++ {
		ctx.Compute(t.cfg.CompareCost)
		t.space.Load(ctx, i*t.recordSize, hdr[:])
		if binary.LittleEndian.Uint64(hdr[:]) >= key {
			return i
		}
	}
	return t.cfg.Keys
}

// get runs the point-lookup path: bloom filter, index seek, record read.
// A miss at any stage leaves m not Found.
func (t *Table) get(ctx workload.Ctx, m *Msg) {
	key := m.Key
	m.Found, m.Digest = false, 0
	if !t.bloomTest(ctx, key) {
		t.NotFound.Inc()
		return
	}
	i := t.seek(ctx, key)
	if i >= t.cfg.Keys {
		t.NotFound.Inc()
		return
	}
	rec := workload.Scratch(&m.rec, int(t.recordSize))
	t.space.Load(ctx, i*t.recordSize, rec)
	got := binary.LittleEndian.Uint64(rec[:8])
	if got != key {
		t.NotFound.Inc()
		return
	}
	ctx.Compute(t.cfg.RecordCost)
	digest := uint64(1469598103934665603)
	ok := true
	for b := 0; b < t.cfg.ValueSize; b += 64 {
		if rec[8+b] != valueByte(key, b) {
			ok = false
		}
		digest = digest*0x100000001B3 + uint64(rec[8+b])
	}
	if !ok {
		t.Mismatches.Inc()
	}
	m.Found, m.Digest = true, digest
}

// scan iterates m.Len records from the first key ≥ m.Key, with a
// preemption probe per record — the shape that lets DiLOS-P's preemptive
// scheduler help this workload (Figure 11) while plain busy-waiting
// suffers.
func (t *Table) scan(ctx workload.Ctx, m *Msg) {
	i := t.seek(ctx, m.Key)
	if t.cfg.AppPrefetch {
		t.mgr.PrefetchRange(ctx, t.space, i*t.recordSize, int64(m.Len)*t.recordSize)
	}
	rec := workload.Scratch(&m.rec, int(t.recordSize))
	digest := uint64(1469598103934665603)
	count := 0
	for ; i < t.cfg.Keys && count < m.Len; i++ {
		ctx.Probe()
		ctx.Compute(t.cfg.RecordCost)
		t.space.Load(ctx, i*t.recordSize, rec)
		key := binary.LittleEndian.Uint64(rec[:8])
		if rec[8] != valueByte(key, 0) {
			t.Mismatches.Inc()
		}
		digest = digest*0x100000001B3 + key
		count++
	}
	m.Count, m.Digest = count, digest
}

// referenceHandler is the retired Handler.
func (t *Table) referenceHandler() workload.Handler {
	return func(ctx workload.Ctx, payload any) (any, int) {
		ctx.Compute(t.cfg.ParseCost)
		m := payload.(*Msg)
		respBytes := 64 + t.cfg.ValueSize
		if m.Scan {
			t.scan(ctx, m)
			respBytes = 64 + m.Len*8
		} else {
			t.get(ctx, m)
		}
		ctx.Compute(t.cfg.ReplyCost)
		return m, respBytes
	}
}
