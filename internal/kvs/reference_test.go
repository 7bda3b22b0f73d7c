package kvs

import (
	"encoding/binary"

	"repro/internal/workload"
)

// The store's request logic as it was before it became a stepper: the
// direct-style bodies, verbatim, run on workload.Blocking as the
// reference TestStepperMatchesReference holds the stepper to.

// lookup probes slots from the hash bucket, verifying the tag and key,
// and returns where the key's value lives in the item space.
func (s *Store) lookup(ctx workload.Ctx, key uint64) (itemOff int64, ok bool) {
	var want [KeySize]byte
	keyBytes(key, want[:])
	tag := hash(key) >> 56
	idx := int64(hash(key)) & s.mask
	var hdr [slotHeader + KeySize]byte
	for probes := int64(0); probes <= s.mask; probes++ {
		ctx.Probe()
		ctx.Compute(s.cfg.ProbeCost)
		off := idx * s.slotSize
		s.index.Load(ctx, off, hdr[:])
		meta := binary.LittleEndian.Uint64(hdr[:8])
		if meta&1 == 0 {
			break
		}
		if (meta>>8)&0xFF == tag&0xFF && string(hdr[slotHeader:]) == string(want[:]) {
			return int64(s.index.LoadU64(ctx, off+slotHeader+keyArea)), true
		}
		idx = (idx + 1) & s.mask
	}
	s.Misses.Inc()
	return 0, false
}

// get runs the paged GET path: find the key, then read and digest the
// value.
func (s *Store) get(ctx workload.Ctx, m *Msg) {
	m.Found, m.Digest = false, 0
	itemOff, ok := s.lookup(ctx, m.Key)
	if !ok {
		return
	}
	val := workload.Scratch(&m.val, s.cfg.ValueSize)
	s.items.Load(ctx, itemOff, val)
	// Values are salted at SET time; recover the salt from the
	// first byte, then verify sampled bytes against it.
	salt := val[0] ^ valueByte(m.Key, 0, 0)
	digest := uint64(salt) + 1
	for i := 0; i < s.cfg.ValueSize; i += 64 {
		if val[i] != valueByte(m.Key, salt, i) {
			ok = false
		}
		digest = digest*0x100000001B3 + uint64(val[i])
	}
	if !ok {
		s.Mismatches.Inc()
	}
	m.Found, m.Digest = true, digest
}

// set overwrites the value of an existing key with new salted content.
func (s *Store) set(ctx workload.Ctx, m *Msg) {
	m.Found, m.Digest = false, 0
	itemOff, ok := s.lookup(ctx, m.Key)
	if !ok {
		return
	}
	val := workload.Scratch(&m.val, s.cfg.ValueSize)
	for i := range val {
		val[i] = valueByte(m.Key, m.Salt, i)
	}
	s.items.Store(ctx, itemOff, val)
	m.Found, m.Digest = true, valueDigest(m.Key, m.Salt, s.cfg.ValueSize)
}

// referenceHandler is the retired Handler.
func (s *Store) referenceHandler() workload.Handler {
	return func(ctx workload.Ctx, payload any) (any, int) {
		ctx.Compute(s.cfg.ParseCost)
		m := payload.(*Msg)
		respBytes := 64
		if m.Set {
			s.set(ctx, m)
		} else {
			s.get(ctx, m)
			respBytes += s.cfg.ValueSize
		}
		ctx.Compute(s.cfg.ReplyCost)
		return m, respBytes
	}
}
