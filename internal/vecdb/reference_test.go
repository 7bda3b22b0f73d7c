package vecdb

import (
	"container/heap"
	"encoding/binary"
	"math"

	"repro/internal/sim"
	"repro/internal/workload"
)

// The query as it was before it became a stepper: the direct-style body,
// verbatim, run on workload.Blocking as the reference
// TestStepperMatchesReference holds the stepper to.

// Search runs the IVF-Flat query under the given execution context.
func (idx *Index) Search(ctx workload.Ctx, q []float32) Result {
	cfg := &idx.cfg
	ctx.Compute(cfg.ParseCost)

	// Coarse quantizer: in-core centroid scan.
	ctx.Compute(sim.Time(len(idx.centroids)) * cfg.CentroidCost)
	type cd struct {
		c int
		d float32
	}
	order := make([]cd, len(idx.centroids))
	for c := range idx.centroids {
		order[c] = cd{c, l2(q, idx.centroids[c])}
	}
	// Partial selection of NProbe nearest lists.
	for i := 0; i < cfg.NProbe; i++ {
		min := i
		for j := i + 1; j < len(order); j++ {
			if order[j].d < order[min].d {
				min = j
			}
		}
		order[i], order[min] = order[min], order[i]
	}

	h := make(resultHeap, 0, cfg.K+1)
	rec := make([]byte, idx.recSize)
	vec := make([]float32, cfg.Dim)
	for p := 0; p < cfg.NProbe; p++ {
		l := order[p].c
		off := idx.listOff[l]
		for i := int32(0); i < idx.listLen[l]; i++ {
			if i%32 == 0 {
				ctx.Probe()
			}
			ctx.Compute(cfg.VecCost)
			idx.space.Load(ctx, off, rec)
			id := binary.LittleEndian.Uint32(rec[:4])
			for d := 0; d < cfg.Dim; d++ {
				vec[d] = math.Float32frombits(binary.LittleEndian.Uint32(rec[8+d*4:]))
			}
			dist := l2(q, vec)
			if len(h) < cfg.K {
				heap.Push(&h, Neighbor{ID: id, Dist: dist})
			} else if dist < h[0].Dist {
				h[0] = Neighbor{ID: id, Dist: dist}
				heap.Fix(&h, 0)
			}
			off += idx.recSize
		}
	}
	// Extract ascending by distance.
	out := make([]Neighbor, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Neighbor)
	}
	return Result{Neighbors: out}
}

// referenceHandler is the retired Handler (its payload is now the
// request's record rather than a Query value).
func (idx *Index) referenceHandler() workload.Handler {
	return func(ctx workload.Ctx, payload any) (any, int) {
		q := payload.(*Query)
		r := idx.Search(ctx, q.Vec)
		return r, 64 + len(r.Neighbors)*8
	}
}
