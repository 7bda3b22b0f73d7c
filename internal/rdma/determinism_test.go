package rdma

import (
	"hash/fnv"
	"testing"

	"repro/internal/sim"
)

// postReadRef and postWriteRef are the retired per-post-closure verb
// paths, kept as references: the pooled wrOp implementation must
// deliver the same completions, with the same data movement, at the
// same times in the same order. NIC.serve applies a memory-node stall
// itself, so the references leave it to serve.

func postReadRef(qp *QP, dst, src []byte, cookie any) error {
	if len(dst) != len(src) {
		panic("length mismatch")
	}
	if qp.errored {
		return ErrQPError
	}
	if qp.Full() {
		return ErrQPFull
	}
	qp.outstanding++
	n := len(dst)
	cfg := &qp.nic.cfg
	env := qp.nic.env

	fail, extra, slow := qp.nic.intercept(OpRead, n)
	arrive := qp.nic.serve(env.Now()+scale(cfg.ReqFlight, slow), n)
	start := maxTime(arrive, qp.freeAt, qp.nic.inFreeAt)
	xfer := sim.Time(float64(n+cfg.WireOverhead) * cfg.CyclesPerByte * slow)
	done := start + xfer
	qp.freeAt = done
	qp.nic.inFreeAt = done
	qp.nic.inBusy.AddInterval(int64(start), int64(done))
	qp.nic.Reads.Inc()
	qp.nic.ReadBytes.Add(int64(n))

	deliver := done + scale(cfg.RespFlight, slow) + extra
	env.At(deliver, func() {
		c := Completion{Kind: OpRead, Bytes: n, Cookie: cookie, QP: qp, At: deliver}
		switch {
		case fail:
			c.Err = ErrWR
		case qp.errored:
			c.Err = ErrWRFlushed
		default:
			copy(dst, src)
		}
		qp.complete(c)
	})
	return nil
}

func postWriteRef(qp *QP, dst, src []byte, cookie any) error {
	if len(dst) != len(src) {
		panic("length mismatch")
	}
	if qp.errored {
		return ErrQPError
	}
	if qp.Full() {
		return ErrQPFull
	}
	qp.outstanding++
	n := len(src)
	cfg := &qp.nic.cfg
	env := qp.nic.env

	fail, extra, slow := qp.nic.intercept(OpWrite, n)
	start := maxTime(env.Now()+scale(cfg.ReqFlight/4, slow), qp.freeAt, qp.nic.outFreeAt)
	xfer := sim.Time(float64(n+cfg.WireOverhead) * cfg.CyclesPerByte * slow)
	done := start + xfer
	qp.freeAt = done
	qp.nic.outFreeAt = done
	qp.nic.outBusy.AddInterval(int64(start), int64(done))
	qp.nic.Writes.Inc()
	qp.nic.WriteBytes.Add(int64(n))

	served := qp.nic.serve(done+scale(cfg.ReqFlight*3/4, slow), n)
	deliver := served + scale(cfg.RespFlight, slow) + extra
	env.At(deliver, func() {
		c := Completion{Kind: OpWrite, Bytes: n, Cookie: cookie, QP: qp, At: deliver}
		switch {
		case fail:
			c.Err = ErrWR
		case qp.errored:
			c.Err = ErrWRFlushed
		default:
			copy(dst, src)
		}
		qp.complete(c)
	})
	return nil
}

// TestPooledWROpsMatchClosureReference drives two QPs at a tiny depth
// with a mixed READ/WRITE stream — hitting the ErrQPFull backoff path —
// once through the pooled wrOp posts and once through the retired
// closure posts, and requires a bit-identical digest of the completion
// stream plus the final remote-region and read-buffer contents.
func TestPooledWROpsMatchClosureReference(t *testing.T) {
	const (
		nBuf    = 16
		bufSize = 512
	)
	run := func(ref bool) (reads, writes, fulls int64, sum uint64) {
		env := sim.NewEnv(17)
		cfg := DefaultConfig()
		cfg.QPDepth = 4
		nic := NewNIC(env, cfg)
		h := fnv.New64a()
		mix := func(vals ...uint64) {
			var buf [8]byte
			for _, v := range vals {
				for i := 0; i < 8; i++ {
					buf[i] = byte(v >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
		remote := make([]byte, nBuf*bufSize)
		local := make([]byte, nBuf*bufSize)
		cq := NewCQ("drv")
		cq.Notify = func() {
			for _, c := range cq.Poll(64) {
				e := uint64(0)
				if c.Err != nil {
					e = 1
				}
				mix(uint64(c.At), uint64(c.Kind), uint64(c.Bytes), e, c.Cookie.(uint64))
			}
		}
		qps := []*QP{nic.CreateQP("a", cq), nic.CreateQP("b", cq)}
		rng := env.Rand()
		var cookie uint64
		var fullRetries int64
		// The poster draws an op, posts it — waiting for a slot and
		// reposting while the QP refuses — then sleeps.
		const (
			draw = iota
			post
			wait
		)
		i, phase := 0, draw
		var qp *QP
		var dst, src []byte
		var write bool
		var poster *sim.Task
		poster = sim.NewTask(env, "poster", func() {
			for i < 300 {
				switch phase {
				case draw:
					qp = qps[rng.Intn(2)]
					bi := rng.Intn(nBuf)
					dst = local[bi*bufSize : (bi+1)*bufSize]
					src = remote[bi*bufSize : (bi+1)*bufSize]
					write = rng.Bool(0.5)
					if write {
						dst, src = src, dst
						for j := range src {
							src[j] = byte(int(cookie) + j)
						}
					}
					phase = post
				case post:
					cookie++
					var err error
					switch {
					case write && ref:
						err = postWriteRef(qp, dst, src, cookie)
					case write:
						err = qp.PostWrite(dst, src, cookie)
					case ref:
						err = postReadRef(qp, dst, src, cookie)
					default:
						err = qp.PostRead(dst, src, cookie)
					}
					if err != nil {
						fullRetries++
						phase = wait
						continue
					}
					i, phase = i+1, draw
					if !poster.Sleep(sim.Time(rng.Intn(2000))) {
						return
					}
				case wait:
					if qp.Full() || qp.Errored() {
						qp.AddSlotWaiter(poster)
						return
					}
					phase = post
				}
			}
		})
		poster.FireAt(env.Now())
		env.RunAll()
		mix(uint64(nic.ReadBytes.Value()), uint64(nic.WriteBytes.Value()))
		h.Write(remote)
		h.Write(local)
		return nic.Reads.Value(), nic.Writes.Value(), fullRetries, h.Sum64()
	}

	reads, writes, fulls, sum := run(false)
	rReads, rWrites, rFulls, rSum := run(true)
	if reads == 0 || writes == 0 {
		t.Fatal("workload posted no verbs")
	}
	if fulls == 0 {
		t.Fatal("workload never saturated a QP; full-queue path untested")
	}
	if reads != rReads || writes != rWrites || fulls != rFulls || sum != rSum {
		t.Fatalf("pooled wrOps diverged from closure reference: reads %d/%d writes %d/%d fulls %d/%d digest %x/%x",
			reads, rReads, writes, rWrites, fulls, rFulls, sum, rSum)
	}
}
