// Package vecdb is the Faiss stand-in: an IVF-Flat vector similarity
// index (the paper's Faiss configuration, §5.2) whose inverted lists of
// raw float32 vectors live in paged remote memory. Centroids and list
// directories stay in core, as Faiss keeps its coarse quantizer.
//
// A query scans the NProbe nearest inverted lists, computing real L2
// distances over the paged vectors — thousands of page faults and
// milliseconds of compute per request, the tens-of-milliseconds regime
// Figure 13 evaluates. The dataset is synthetic clustered data standing
// in for BIGANN (see DESIGN.md's substitution table); k-means-lite
// builds the centroids at setup time.
package vecdb

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/memnode"
	"repro/internal/paging"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config sizes the index.
type Config struct {
	N      int // vectors
	Dim    int // dimensions (BIGANN SIFT: 128)
	NList  int // inverted lists (coarse centroids)
	NProbe int // lists scanned per query
	K      int // results returned

	// VecCost is the CPU charge per scanned vector (L2 over Dim floats);
	// CentroidCost per coarse-quantizer centroid.
	VecCost      sim.Time
	CentroidCost sim.Time
	ParseCost    sim.Time

	// Seed controls dataset generation.
	Seed int64
}

// DefaultConfig returns the scaled BIGANN-like setup.
func DefaultConfig(n int) Config {
	return Config{
		N:            n,
		Dim:          128,
		NList:        192,
		NProbe:       24,
		K:            10,
		VecCost:      350,
		CentroidCost: 350,
		ParseCost:    500,
		Seed:         99,
	}
}

// Index is the IVF-Flat index.
type Index struct {
	cfg Config
	mgr *paging.Manager

	space   *paging.Space
	recSize int64

	centroids [][]float32 // in-core coarse quantizer
	listOff   []int64     // byte offset of each list in the space
	listLen   []int32     // vectors per list

	// Mismatches counts queries whose verified sample disagreed with
	// brute force beyond tolerance (tests drive this).
	Mismatches stats.Counter
}

// Query is the one message record of a request: the query vector going
// in, the K nearest neighbours (ascending by distance) coming back in the
// same record. Below them is the scan's state between steps — in the
// record, never in the Index: another query runs while this one is parked.
type Query struct {
	Vec       []float32
	Neighbors []Neighbor

	lists []candidate // the NProbe nearest lists first
	best  resultHeap  // the K nearest vectors so far
	rec   []byte      // one stored record
	vec   []float32   // … and its vector, decoded
}

// Neighbor is one search result.
type Neighbor struct {
	ID   uint32
	Dist float32
}

// Result is what the verification searches return.
type Result struct{ Neighbors []Neighbor }

// Blueprint is the reusable, simulation-independent part of an index:
// the synthetic dataset, trained centroids, and list assignment.
// Building it is the expensive step; Instantiate then materializes an
// Index against a particular paging manager cheaply, so load sweeps can
// reuse one Blueprint across many fresh systems.
type Blueprint struct {
	cfg    Config
	vecs   [][]float32
	cents  [][]float32
	assign [][]uint32
}

// NewBlueprint synthesizes the clustered dataset (standing in for
// BIGANN, see DESIGN.md), trains centroids with k-means-lite, and
// assigns vectors to inverted lists.
func NewBlueprint(cfg Config) *Blueprint {
	if cfg.K <= 0 || cfg.NProbe <= 0 || cfg.NList <= 0 || cfg.NProbe > cfg.NList {
		panic(fmt.Sprintf("vecdb: bad config %+v", cfg))
	}
	rng := sim.NewRNG(cfg.Seed)
	bp := &Blueprint{cfg: cfg}

	// Synthetic clustered dataset: NList ground-truth centers with
	// Gaussian noise, mimicking BIGANN's clusterable SIFT descriptors.
	centers := make([][]float32, cfg.NList)
	for c := range centers {
		centers[c] = randVec(rng, cfg.Dim, 0, 1)
	}
	bp.vecs = make([][]float32, cfg.N)
	for i := range bp.vecs {
		c := centers[rng.Intn(cfg.NList)]
		v := make([]float32, cfg.Dim)
		for d := range v {
			v[d] = c[d] + float32(rng.Normal(0, 0.08, -4))
		}
		bp.vecs[i] = v
	}

	bp.cents = kmeansLite(rng, bp.vecs, cfg.NList, 3)

	bp.assign = make([][]uint32, cfg.NList)
	for i, v := range bp.vecs {
		best, bd := 0, float32(math.MaxFloat32)
		for c := range bp.cents {
			d := l2(v, bp.cents[c])
			if d < bd {
				best, bd = c, d
			}
		}
		bp.assign[best] = append(bp.assign[best], uint32(i))
	}
	return bp
}

// layout sizes the index: the bytes of one record (u32 id + padding +
// Dim floats) and of the page-aligned inverted-list store. Instantiate
// allocates exactly this and Footprint reports it, so the two agree.
func layout(cfg Config) (recSize, total int64) {
	recSize = int64(8 + cfg.Dim*4)
	return recSize, paging.PageAlign(int64(cfg.N) * recSize)
}

// Footprint is what SpaceSize will report for an index of cfg, for
// sizing local DRAM without building one.
func Footprint(cfg Config) int64 {
	_, total := layout(cfg)
	return total
}

// Instantiate materializes the blueprint as an Index over the given
// paging manager and memory node.
func (bp *Blueprint) Instantiate(mgr *paging.Manager, node memnode.Allocator) *Index {
	cfg := bp.cfg
	idx := &Index{cfg: cfg, mgr: mgr}
	idx.centroids = bp.cents

	// Lay lists out contiguously in the paged space.
	var total int64
	idx.recSize, total = layout(cfg)
	idx.space = mgr.NewSpace("vecdb", node.MustAlloc("vecdb", total))
	lists := idx.space.SetupBytes()
	idx.listOff = make([]int64, cfg.NList)
	idx.listLen = make([]int32, cfg.NList)
	off := int64(0)
	for l, ids := range bp.assign {
		idx.listOff[l] = off
		idx.listLen[l] = int32(len(ids))
		for _, id := range ids {
			binary.LittleEndian.PutUint32(lists[off:off+4], id)
			for d := 0; d < cfg.Dim; d++ {
				bits := math.Float32bits(bp.vecs[id][d])
				binary.LittleEndian.PutUint32(lists[off+8+int64(d)*4:], bits)
			}
			off += idx.recSize
		}
	}
	return idx
}

// New builds an index in one step (blueprint + instantiate).
func New(mgr *paging.Manager, node memnode.Allocator, cfg Config) *Index {
	return NewBlueprint(cfg).Instantiate(mgr, node)
}

func randVec(rng *sim.RNG, dim int, lo, hi float64) []float32 {
	v := make([]float32, dim)
	for d := range v {
		v[d] = float32(lo + rng.Float64()*(hi-lo))
	}
	return v
}

// kmeansLite runs a few Lloyd iterations on a sample — enough for a
// usable coarse quantizer without minutes of setup.
func kmeansLite(rng *sim.RNG, vecs [][]float32, k, iters int) [][]float32 {
	sample := vecs
	if len(sample) > 20000 {
		sample = make([][]float32, 20000)
		for i := range sample {
			sample[i] = vecs[rng.Intn(len(vecs))]
		}
	}
	dim := len(vecs[0])
	cents := make([][]float32, k)
	for c := range cents {
		src := sample[rng.Intn(len(sample))]
		cents[c] = append([]float32(nil), src...)
	}
	for it := 0; it < iters; it++ {
		sums := make([][]float64, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for _, v := range sample {
			best, bd := 0, float32(math.MaxFloat32)
			for c := range cents {
				d := l2(v, cents[c])
				if d < bd {
					best, bd = c, d
				}
			}
			counts[best]++
			for d := range v {
				sums[best][d] += float64(v[d])
			}
		}
		for c := range cents {
			if counts[c] == 0 {
				cents[c] = append([]float32(nil), sample[rng.Intn(len(sample))]...)
				continue
			}
			for d := range cents[c] {
				cents[c][d] = float32(sums[c][d] / float64(counts[c]))
			}
		}
	}
	return cents
}

// l2 is squared Euclidean distance.
func l2(a, b []float32) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// SpaceSize returns the inverted-list store size in bytes.
func (idx *Index) SpaceSize() int64 { return idx.space.Size() }

// WarmCache preloads list prefixes up to the frame pool's steady state.
func (idx *Index) WarmCache() { idx.mgr.WarmSpaces(idx.space.Size(), idx.space) }

// resultHeap is a max-heap by distance (so the worst of the best K is on
// top and can be displaced).
type resultHeap []Neighbor

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return h[i].Dist > h[j].Dist }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Neighbor)) }
func (h *resultHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// offer keeps n if it is among the k nearest seen.
func (h *resultHeap) offer(k int, n Neighbor) {
	if len(*h) < k {
		heap.Push(h, n)
	} else if n.Dist < (*h)[0].Dist {
		(*h)[0] = n
		heap.Fix(h, 0)
	}
}

// ascending empties the heap into a slice ordered by distance.
func (h *resultHeap) ascending() []Neighbor {
	out := make([]Neighbor, len(*h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Neighbor)
	}
	return out
}

// candidate is an inverted list and the distance of its centroid.
type candidate struct {
	list int
	dist float32
}

// nearestLists is the coarse quantizer: an in-core centroid scan and a
// partial selection that puts the NProbe nearest lists first.
func (idx *Index) nearestLists(q []float32) []candidate {
	order := make([]candidate, len(idx.centroids))
	for c := range idx.centroids {
		order[c] = candidate{c, l2(q, idx.centroids[c])}
	}
	for i := 0; i < idx.cfg.NProbe; i++ {
		min := i
		for j := i + 1; j < len(order); j++ {
			if order[j].dist < order[min].dist {
				min = j
			}
		}
		order[i], order[min] = order[min], order[i]
	}
	return order
}

// neighbor decodes one stored record into vec and measures it against q.
func neighbor(q []float32, rec []byte, vec []float32) Neighbor {
	for d := range vec {
		vec[d] = math.Float32frombits(binary.LittleEndian.Uint32(rec[8+d*4:]))
	}
	return Neighbor{ID: binary.LittleEndian.Uint32(rec[:4]), Dist: l2(q, vec)}
}

// scanDirect folds the vectors of the given lists into the k nearest to q,
// reading current state without simulated timing.
func (idx *Index) scanDirect(q []float32, lists []candidate) Result {
	h := make(resultHeap, 0, idx.cfg.K+1)
	rec := make([]byte, idx.recSize)
	vec := make([]float32, idx.cfg.Dim)
	for _, l := range lists {
		off := idx.listOff[l.list]
		for i := int32(0); i < idx.listLen[l.list]; i++ {
			idx.space.ReadDirect(off, rec)
			h.offer(idx.cfg.K, neighbor(q, rec, vec))
			off += idx.recSize
		}
	}
	return Result{Neighbors: h.ascending()}
}

// SearchDirect runs the IVF-Flat query against current state without
// simulated timing (verification only): the same lists in the same order
// as a request scans them, read through ReadDirect.
func (idx *Index) SearchDirect(q []float32) Result {
	return idx.scanDirect(q, idx.nearestLists(q)[:idx.cfg.NProbe])
}

// BruteForce computes the exact top-K by scanning every list of the
// backing store directly (verification only; no simulated cost).
func (idx *Index) BruteForce(q []float32) Result {
	all := make([]candidate, len(idx.listOff))
	for l := range all {
		all[l].list = l
	}
	return idx.scanDirect(q, all)
}

// SampleVector reads stored vector id (verification/query generation).
func (idx *Index) SampleVector(id int) []float32 {
	// Locate by scanning the directory; queries only need a few samples.
	rec := make([]byte, idx.recSize)
	for l := range idx.listOff {
		off := idx.listOff[l]
		for i := int32(0); i < idx.listLen[l]; i++ {
			idx.space.ReadDirect(off, rec[:4])
			if binary.LittleEndian.Uint32(rec[:4]) == uint32(id) {
				idx.space.ReadDirect(off, rec)
				v := make([]float32, idx.cfg.Dim)
				for d := 0; d < idx.cfg.Dim; d++ {
					v[d] = math.Float32frombits(binary.LittleEndian.Uint32(rec[8+d*4:]))
				}
				return v
			}
			off += idx.recSize
		}
	}
	return nil
}

// Name implements workload.App.
func (idx *Index) Name() string { return fmt.Sprintf("faiss-ivfflat-%dk", idx.cfg.N/1000) }

// NextRequest implements workload.App: a perturbed copy of a random
// stored vector, as BIGANN's query set is drawn from the same
// distribution as the base set. The reuse hint is ignored: a query costs
// the host a distance computation per scanned vector, next to which its
// handful of slices is nothing.
func (idx *Index) NextRequest(rng *sim.RNG, _ any) (any, int) {
	l := rng.Intn(idx.cfg.NList)
	for idx.listLen[l] == 0 {
		l = rng.Intn(idx.cfg.NList)
	}
	i := rng.Intn(int(idx.listLen[l]))
	off := idx.listOff[l] + int64(i)*idx.recSize
	rec := make([]byte, idx.recSize)
	idx.space.ReadDirect(off, rec)
	q := make([]float32, idx.cfg.Dim)
	for d := 0; d < idx.cfg.Dim; d++ {
		q[d] = math.Float32frombits(binary.LittleEndian.Uint32(rec[8+d*4:])) +
			float32(rng.Normal(0, 0.02, -1))
	}
	return &Query{Vec: q}, 64 + idx.cfg.Dim*4
}

// StepHandler implements workload.App.
func (idx *Index) StepHandler() workload.StepHandler { return stepper{idx} }

// stepper is the IVF-Flat query, and its only form: a walk through the
// phases below that returns to the scheduler at every compute charge,
// probe and page miss, so the thousands of charges and faults of a query
// run on the worker core's step machine with no stack of their own. The
// charge stays one per scanned vector, so every fault falls at the
// simulated instant its vector is reached.
type stepper struct{ idx *Index }

// Phases (StepFrame.PC): parse, the coarse quantizer, then the scan loop
// over each vector of each chosen list.
const (
	stParse  = iota
	stCoarse // the centroid scan: the lists it chooses, and its charge
	stVector // per vector: loop tests and, every 32, a preemption probe …
	stCost   // … the distance computation's charge …
	stRecord // … and the record
)

// Spill words (StepFrame.W).
const (
	wDone = iota // bytes already copied of a record that spans pages
	wList        // which of the NProbe lists
	wI           // vector within the list
	wOff         // … and its byte offset in the space
)

// Begin implements workload.StepHandler: the zeroed frame is the start.
func (stepper) Begin(*workload.StepFrame, any) {}

// Abort implements workload.StepHandler: the frame refers to nothing.
func (stepper) Abort(*workload.StepFrame, error) {}

// Step implements workload.StepHandler.
func (h stepper) Step(ctx workload.StepCtx, f *workload.StepFrame, payload any) (any, int, sim.Time, workload.StepStatus) {
	idx, cfg, q := h.idx, &h.idx.cfg, payload.(*Query)
	for {
		switch f.PC {
		case stParse:
			f.PC = stCoarse
			return nil, 0, cfg.ParseCost, workload.StepCompute
		case stCoarse:
			q.lists = idx.nearestLists(q.Vec)[:cfg.NProbe]
			q.best = make(resultHeap, 0, cfg.K+1)
			q.rec, q.vec = make([]byte, idx.recSize), make([]float32, cfg.Dim)
			f.W[wOff] = uint64(idx.listOff[q.lists[0].list])
			f.PC = stVector
			return nil, 0, sim.Time(len(idx.centroids)) * cfg.CentroidCost, workload.StepCompute

		case stVector:
			if int32(f.W[wI]) == idx.listLen[q.lists[f.W[wList]].list] { // next list
				if f.W[wList]++; int(f.W[wList]) == cfg.NProbe {
					q.Neighbors = q.best.ascending()
					return q, 64 + len(q.Neighbors)*8, 0, workload.StepDone
				}
				f.W[wI], f.W[wOff] = 0, uint64(idx.listOff[q.lists[f.W[wList]].list])
				continue
			}
			f.PC = stCost
			if f.W[wI]%32 == 0 && !ctx.ProbeFree() {
				return nil, 0, 0, workload.StepProbe
			}
		case stCost:
			f.PC = stRecord
			return nil, 0, cfg.VecCost, workload.StepCompute
		case stRecord:
			if !workload.TryLoad(ctx, idx.space, int64(f.W[wOff]), q.rec, &f.W[wDone]) {
				return nil, 0, 0, workload.StepFault
			}
			q.best.offer(cfg.K, neighbor(q.Vec, q.rec, q.vec))
			f.W[wI]++
			f.W[wOff] += uint64(idx.recSize)
			f.PC = stVector
		default:
			panic("vecdb: corrupt step frame")
		}
	}
}
