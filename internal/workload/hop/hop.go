// Package hop implements the MineBench HOP benchmark: density-based
// grouping of particles (Eisenstein & Hut's HOP algorithm). Each particle
// estimates a local density from its spatial neighbors, "hops" to its
// densest neighbor until it reaches a local density maximum, and particles
// that reach the same maximum form a group.
//
// The implementation uses a uniform grid (the substitute for hop's KD
// tree): a parallel binning pass produces per-thread partial cell counts
// that are merged serially — hop's dominant merging phase, whose work is
// threads × cells and whose memory footprint makes it the paper's
// superlinear-growth example (Table II reports fored = 155%). A serial
// placement pass, parallel density and hop passes, a serial cross-chunk
// group merge, and a final relabel complete the pipeline.
package hop

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"mergescale/internal/shapepool"

	"mergescale/internal/parallel"
	"mergescale/internal/sim"
	"mergescale/internal/trace"
	"mergescale/internal/workload"
	"mergescale/internal/workload/datagen"
)

// Config holds algorithm parameters.
type Config struct {
	// CellsPerDim fixes the grid resolution; 0 picks ~4 points per cell.
	CellsPerDim int
	// MaxNeighbors caps the density/hop candidate scan per point — HOP's
	// Ndens parameter (the density estimate uses the nearest neighbors,
	// not every particle in range). 0 uses the default of 64.
	MaxNeighbors int
}

// DefaultConfig returns the defaults (Ndens = 64, as in the original HOP).
func DefaultConfig() Config { return Config{MaxNeighbors: 64} }

// Result carries the grouping output.
type Result struct {
	Group  []int // group id per point (root point index)
	Groups int   // distinct group count
}

// Hop is the workload adapter.
type Hop struct {
	Cfg Config
}

// New returns a hop workload with defaults.
func New() *Hop { return &Hop{Cfg: DefaultConfig()} }

// Name implements workload.Workload.
func (w *Hop) Name() string { return "hop" }

// Params implements workload.Workload: Cfg is a plain scalar struct, so it
// renders deterministically into engine cache keys.
func (w *Hop) Params() any { return w.Cfg }

// DefaultSpec implements workload.Workload.
func (w *Hop) DefaultSpec() datagen.Spec { return datagen.HopDefault }

// grid is the uniform spatial index replacing hop's KD-tree.
type grid struct {
	g     int       // cells per dimension
	d     int       // dimensions (points are embedded in min/scale space)
	min   []float64 // per-dimension minimum
	scale []float64 // per-dimension cell width
	cells int       // g^d
	start []int32   // cells+1 prefix offsets
	order []int32   // point indices sorted by cell
}

func (gr *grid) cellOf(pt []float64) int {
	c := 0
	for j := 0; j < gr.d; j++ {
		v := int((pt[j] - gr.min[j]) / gr.scale[j])
		if v < 0 {
			v = 0
		}
		if v >= gr.g {
			v = gr.g - 1
		}
		c = c*gr.g + v
	}
	return c
}

// cellCoord decomposes a cell index into per-dimension coordinates.
func (gr *grid) cellCoord(cell int, out []int) {
	for j := gr.d - 1; j >= 0; j-- {
		out[j] = cell % gr.g
		cell /= gr.g
	}
}

// runScratch holds Run's per-run working arrays, pooled by shape
// ([n, cells, threads, d, mask words]) so the dozens of native runs an
// experiment suite performs reuse their buffers instead of reallocating
// megabytes of scratch per run. Everything but sorted, inRange and
// density is zeroed on acquire; those three are fully overwritten by
// every run. Only Result.Group (returned to the caller) is freshly
// allocated per run.
type runScratch struct {
	shape            [5]int
	partial          [][]int32
	cellIdx, counts  []int32
	order, cursor    []int32
	parent, posOf    []int32
	root             []int32
	density          []float64
	parOps           []float64
	min, scale, maxv []float64
	sorted           []float64 // coordinates in cell-sorted order, n*d
	inRange          []uint64  // words per sorted position; bit k: window candidate k is within the radius
}

var scratchPools shapepool.Registry[[5]int]

func acquireScratch(n, cells, threads, d, words int) *runScratch {
	shape := [5]int{n, cells, threads, d, words}
	if s, _ := scratchPools.For(shape).Get().(*runScratch); s != nil {
		s.clear()
		return s
	}
	s := &runScratch{
		shape:   shape,
		sorted:  make([]float64, n*d),
		inRange: make([]uint64, n*words),
		partial: make([][]int32, threads),
		cellIdx: make([]int32, n),
		counts:  make([]int32, cells+1),
		order:   make([]int32, n),
		cursor:  make([]int32, cells),
		parent:  make([]int32, n),
		posOf:   make([]int32, n),
		root:    make([]int32, n),
		density: make([]float64, n),
		parOps:  make([]float64, threads),
		min:     make([]float64, d),
		scale:   make([]float64, d),
		maxv:    make([]float64, d),
	}
	for t := range s.partial {
		s.partial[t] = make([]int32, cells)
	}
	return s
}

func (s *runScratch) release() { scratchPools.For(s.shape).Put(s) }

// clear zeroes every buffer a run does not fully overwrite (memclr — no
// allocations); the accumulating arrays (partial counts, parOps, counts)
// rely on it, the rest is cleared for uniformity.
func (s *runScratch) clear() {
	for t := range s.partial {
		clear(s.partial[t])
	}
	clear(s.cellIdx)
	clear(s.counts)
	clear(s.order)
	clear(s.cursor)
	clear(s.parent)
	clear(s.posOf)
	clear(s.root)
	clear(s.parOps)
	clear(s.min)
	clear(s.scale)
	clear(s.maxv)
}

// Run executes hop natively with instrumented phases.
func Run(ds *datagen.Dataset, cfg Config, threads int, timing bool) (*Result, *trace.Profile, error) {
	scr, prof, _, err := pass(ds, cfg, threads, timing)
	if err != nil {
		return nil, nil, err
	}
	defer scr.release()
	n := ds.N()
	parent := scr.parent

	// ---- merging phase, part 2: cross-chunk group merge. Each thread
	// found roots within its chunk of the sorted order; the master resolves
	// parent edges that cross chunk boundaries. The number of cross edges
	// grows with the thread count.
	var tRed *trace.Timer
	if timing {
		tRed = prof.StartTimer(trace.SecReduction)
	}
	cross := crossEdges(parent, scr.posOf, threads)
	if timing {
		tRed.Stop()
	}
	prof.AddWork(trace.SecReduction, float64(cross))

	// ---- serial: root chase with path compression and relabel.
	var tSer *trace.Timer
	if timing {
		tSer = prof.StartTimer(trace.SecSerial)
	}
	root := scr.root
	var find func(i int32) int32
	find = func(i int32) int32 {
		if parent[i] == i {
			return i
		}
		r := find(parent[i])
		parent[i] = r
		return r
	}
	groups := 0
	for i := 0; i < n; i++ {
		root[i] = find(int32(i))
	}
	for i := 0; i < n; i++ {
		if parent[i] == int32(i) {
			groups++
		}
	}
	if timing {
		tSer.Stop()
	}
	prof.AddWork(trace.SecSerial, float64(2*n))

	out := make([]int, n)
	for i := range root {
		out[i] = int(root[i])
	}
	return &Result{Group: out, Groups: groups}, prof, nil
}

// crossEdges counts the parent edges whose endpoints fall in different
// chunks of the threads-way split of the cell-sorted order: the work of
// hop's cross-chunk group merge. parent maps each point to its densest
// candidate and posOf maps it to its sorted position; neither depends on
// the thread count, so one pass serves every count.
func crossEdges(parent, posOf []int32, threads int) int {
	n := len(parent)
	cross := 0
	for i, p := range parent {
		if int(p) != i && parallel.ChunkOf(n, threads, int(posOf[i])) != parallel.ChunkOf(n, threads, int(posOf[p])) {
			cross++
		}
	}
	return cross
}

// pass runs hop on threads workers up to the cross-chunk group merge:
// bounding box, binning, the cell-count merge, placement, and the
// density and hop passes. It leaves parent (point -> densest in-range
// candidate) and posOf (point -> sorted position) in the returned
// scratch, which the caller releases, and returns the grid's cell
// count. The profile holds every section's work except the cross-chunk
// merge and the final relabel; apart from the threads × cells merge
// term, none of it depends on the thread count.
func pass(ds *datagen.Dataset, cfg Config, threads int, timing bool) (*runScratch, *trace.Profile, int, error) {
	if threads < 1 {
		return nil, nil, 0, errors.New("hop: threads must be >= 1")
	}
	n, d := ds.N(), ds.D()
	if d > 4 {
		return nil, nil, 0, fmt.Errorf("hop: dimensionality %d too high for grid neighbors", d)
	}
	prof := trace.NewProfile("hop", threads)
	pool, err := parallel.AcquirePool(threads)
	if err != nil {
		return nil, nil, 0, err
	}
	defer pool.Release()

	// ---- init: bounding box and grid geometry (excluded from serial
	// fraction, as the paper subtracts initialization).
	var tInit *trace.Timer
	if timing {
		tInit = prof.StartTimer(trace.SecInit)
	}
	gr := &grid{d: d}
	gr.g = cfg.CellsPerDim
	if gr.g == 0 {
		gr.g = int(math.Ceil(math.Pow(float64(n)/4, 1/float64(d))))
		if gr.g < 2 {
			gr.g = 2
		}
	}
	gr.cells = 1
	for j := 0; j < d; j++ {
		gr.cells *= gr.g
	}
	maxNbr := cfg.MaxNeighbors
	if maxNbr <= 0 {
		maxNbr = 64
	}
	// Candidates for a point at sorted position s are the window
	// [s-w, s+w] of the cell-sorted order: the grid sort places spatial
	// neighbors next to each other, so the window approximates HOP's
	// Ndens nearest neighbors with bounded work, and overlapping windows
	// let hops chain toward each blob's density peak. Candidate k of the
	// window (self skipped) owns bit k of the point's in-range mask.
	w := maxNbr / 2
	if w < 1 {
		w = 1
	}
	words := (2*w + 63) / 64
	scr := acquireScratch(n, gr.cells, threads, d, words)
	gr.min = scr.min
	gr.scale = scr.scale
	maxv := scr.maxv
	for j := 0; j < d; j++ {
		gr.min[j] = math.MaxFloat64
		maxv[j] = -math.MaxFloat64
	}
	for i := 0; i < n; i++ {
		pt := ds.Point(i)
		for j := 0; j < d; j++ {
			if pt[j] < gr.min[j] {
				gr.min[j] = pt[j]
			}
			if pt[j] > maxv[j] {
				maxv[j] = pt[j]
			}
		}
	}
	for j := 0; j < d; j++ {
		span := maxv[j] - gr.min[j]
		if span <= 0 {
			span = 1
		}
		gr.scale[j] = span / float64(gr.g) * 1.0000001 // keep max in range
	}
	if timing {
		tInit.Stop()
	}
	prof.AddWork(trace.SecInit, float64(n*d*2))

	// ---- parallel: binning (the tree-construction kernel). Each thread
	// counts its chunk into a private cell-count array.
	partial := scr.partial
	cellIdx := scr.cellIdx
	var tPar *trace.Timer
	if timing {
		tPar = prof.StartTimer(trace.SecParallel)
	}
	pool.For(n, func(id, lo, hi int) {
		counts := partial[id]
		for i := lo; i < hi; i++ {
			c := gr.cellOf(ds.Point(i))
			cellIdx[i] = int32(c)
			counts[c]++
		}
	})
	if timing {
		tPar.Stop()
	}
	prof.AddWork(trace.SecParallel, float64(n*(3*d+1)))

	// ---- merging phase, part 1: combine per-thread cell counts. This is
	// hop's dominant reduction: threads × cells operations over a working
	// set that overflows caches (the paper's superlinear case).
	var tRed *trace.Timer
	if timing {
		tRed = prof.StartTimer(trace.SecReduction)
	}
	counts := scr.counts
	for t := 0; t < threads; t++ {
		pc := partial[t]
		for c, v := range pc {
			counts[c+1] += v
		}
	}
	if timing {
		tRed.Stop()
	}
	prof.AddWork(trace.SecReduction, float64(threads*gr.cells))

	// ---- serial: prefix sum and placement (scatter points into sorted
	// order). Constant work regardless of thread count.
	var tSer *trace.Timer
	if timing {
		tSer = prof.StartTimer(trace.SecSerial)
	}
	gr.start = counts
	for c := 0; c < gr.cells; c++ {
		gr.start[c+1] += gr.start[c]
	}
	gr.order = scr.order
	cursor := scr.cursor
	for i := 0; i < n; i++ {
		c := cellIdx[i]
		gr.order[gr.start[c]+cursor[c]] = int32(i)
		cursor[c]++
	}
	if timing {
		tSer.Stop()
	}
	prof.AddWork(trace.SecSerial, float64(gr.cells+n))

	// ---- parallel: density estimation over neighbor cells, then hop to
	// the densest neighbor. Work is counted exactly per thread. density
	// and inRange are indexed by sorted position; parent by point.
	sorted := scr.sorted
	density := scr.density
	inRange := scr.inRange
	parent := scr.parent
	radius2 := 0.0
	for j := 0; j < d; j++ {
		radius2 += gr.scale[j] * gr.scale[j]
	}
	parOps := scr.parOps
	window := func(s int) (int, int) {
		lo := s - w
		if lo < 0 {
			lo = 0
		}
		hi := s + w + 1
		if hi > n {
			hi = n
		}
		return lo, hi
	}

	if timing {
		tPar = prof.StartTimer(trace.SecParallel)
	}
	// Gather the coordinates into cell-sorted order so each window scan
	// reads contiguous memory.
	pool.For(n, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			copy(sorted[s*d:(s+1)*d], ds.Point(int(gr.order[s])))
		}
	})
	// Density pass: each density sums its in-range candidates in window
	// order in a register; the hop pass reuses the in-range mask.
	pool.For(n, func(id, lo, hi int) {
		ops := 0.0
		for s := lo; s < hi; s++ {
			pt := sorted[s*d : (s+1)*d]
			mask := inRange[s*words : (s+1)*words]
			clear(mask)
			wlo, whi := window(s)
			den := 0.0
			for c := wlo; c < whi; c++ {
				if c == s {
					continue
				}
				op := sorted[c*d : (c+1)*d]
				dist := 0.0
				for j := 0; j < d; j++ {
					diff := pt[j] - op[j]
					dist += diff * diff
				}
				if dist <= radius2 {
					den += 1 / (1 + dist)
					k := c - s + w
					if c > s {
						k--
					}
					mask[k>>6] |= 1 << (k & 63)
				}
			}
			density[s] = den
			ops += float64((whi - wlo - 1) * (3*d + 2))
		}
		parOps[id] += ops
	})
	if timing {
		tPar.Stop()
	}

	// Hop pass: each point adopts its densest in-range candidate, read
	// from the density pass's mask instead of recomputing distances. The
	// operation count still charges every candidate's distance.
	if timing {
		tPar = prof.StartTimer(trace.SecParallel)
	}
	pool.For(n, func(id, lo, hi int) {
		ops := 0.0
		for s := lo; s < hi; s++ {
			best, bestDen := gr.order[s], density[s]
			for wi, word := range inRange[s*words : (s+1)*words] {
				for ; word != 0; word &= word - 1 {
					c := s - w + wi<<6 + bits.TrailingZeros64(word)
					if c >= s {
						c++
					}
					o := gr.order[c]
					if density[c] > bestDen || (density[c] == bestDen && o > best) {
						bestDen = density[c]
						best = o
					}
				}
			}
			parent[gr.order[s]] = best
			wlo, whi := window(s)
			ops += float64((whi - wlo - 1) * (3*d + 3))
		}
		parOps[id] += ops
	})
	if timing {
		tPar.Stop()
	}
	for _, v := range parOps {
		prof.AddWork(trace.SecParallel, v)
	}

	posOf := scr.posOf // point -> position in sorted order
	for s := 0; s < n; s++ {
		posOf[gr.order[s]] = int32(s)
	}
	return scr, prof, gr.cells, nil
}

// RunNative implements workload.Workload.
func (w *Hop) RunNative(ds *datagen.Dataset, threads int, timing bool) (*trace.Profile, error) {
	_, prof, err := Run(ds, w.Cfg, threads, timing)
	return prof, err
}

// OpCounts implements workload.Workload. Hop's counts depend on the data
// only through the cross-chunk edges, so one pass at the grid's largest
// thread count yields every profile: init, parallel and the placement
// term are thread-independent integer sums (exact in float64), the
// cell-count merge is threads × cells, and crossEdges recounts the
// pass's parent edges for each thread count. The work is added in Run's
// order, so every profile is bit-identical to Run's.
func (w *Hop) OpCounts(spec datagen.Spec, gen workload.Generator, threads []int) ([]*trace.Profile, error) {
	if len(threads) == 0 {
		return nil, nil
	}
	maxT := 0
	for _, t := range threads {
		if t < 1 {
			return nil, errors.New("hop: threads must be >= 1")
		}
		maxT = max(maxT, t)
	}
	ds, err := gen(spec)
	if err != nil {
		return nil, err
	}
	scr, base, cells, err := pass(ds, w.Cfg, maxT, false)
	if err != nil {
		return nil, err
	}
	defer scr.release()
	out := make([]*trace.Profile, len(threads))
	for i, t := range threads {
		p := trace.NewProfile("hop", t)
		p.AddWork(trace.SecInit, base.Work[trace.SecInit])
		p.AddWork(trace.SecParallel, base.Work[trace.SecParallel])
		p.AddWork(trace.SecReduction, float64(t*cells))
		p.AddWork(trace.SecReduction, float64(crossEdges(scr.parent, scr.posOf, t)))
		p.AddWork(trace.SecSerial, base.Work[trace.SecSerial])
		p.AddWork(trace.SecSerial, float64(2*ds.N()))
		out[i] = p
	}
	return out, nil
}

// BuildProgram implements workload.Workload. The generated program mirrors
// hop's structure: binning and two neighbor passes in the parallel phase,
// the cell-count merge (threads × cells loads of remote-modified lines plus
// per-thread boundary tables that grow with the core count) in the merging
// phase, and placement/relabel in the serial section.
func (w *Hop) BuildProgram(ds *datagen.Dataset, cfg sim.Config, scale int) (*sim.Program, error) {
	if scale < 1 {
		scale = 1
	}
	n := ds.N() / scale
	d := ds.D()
	if n < cfg.Cores*4 {
		return nil, fmt.Errorf("hop: scaled N=%d too small for %d cores", n, cfg.Cores)
	}
	g := int(math.Ceil(math.Pow(float64(n)/4, 1/float64(d))))
	if g < 2 {
		g = 2
	}
	cells := 1
	for j := 0; j < d; j++ {
		cells *= g
	}
	const f8 = 8
	const i4 = 4
	avgNbr := 4 * 27.0 // ~4 points/cell × 3^3 neighbor cells
	if d < 3 {
		avgNbr = 4 * math.Pow(3, float64(d))
	}

	ranges := parallel.Split(n, cfg.Cores)
	cellBytes := uint64(cells * i4)
	return sim.Compile(cfg.Cores, func(b *sim.Builder) {
		b.Phase("init")
		b.LoadRange(0, workload.AddrPoints, uint64(64*d*f8), cfg.LineSz)
		b.Compute(0, uint64(n*d/8)) // sampled bounding box
		b.Barrier()

		// Parallel phase: binning + density + hop passes.
		b.Phase("parallel")
		for id := 0; id < cfg.Cores; id++ {
			r := ranges[id]
			pts := r.Hi - r.Lo
			if pts <= 0 {
				continue
			}
			chunkAddr := workload.AddrPoints + uint64(r.Lo*d*f8)
			chunkBytes := uint64(pts * d * f8)
			// Binning: stream the chunk, update private cell counts.
			b.LoadRange(id, chunkAddr, chunkBytes, cfg.LineSz)
			b.Compute(id, uint64(pts*(3*d+1)))
			b.StoreRange(id, workload.PartialBase(id), cellBytes, cfg.LineSz)
			// Density + hop: two more streaming passes with neighbor work.
			b.LoadRange(id, chunkAddr, chunkBytes, cfg.LineSz)
			b.Compute(id, uint64(float64(pts)*avgNbr*float64(3*d+2)))
			b.LoadRange(id, chunkAddr, chunkBytes, cfg.LineSz)
			b.Compute(id, uint64(float64(pts)*avgNbr*float64(3*d+3)))
		}
		b.Barrier()

		// Merging phase: master gathers every thread's cell counts (remote
		// modified lines — coherence traffic grows with cores) and each
		// thread's boundary table, whose size itself grows with the core count
		// (more chunk boundaries → more cross edges): the superlinear term.
		b.Phase("reduction")
		boundaryLines := uint64(cfg.Cores) * 4
		for id := 0; id < cfg.Cores; id++ {
			b.LoadRange(0, workload.PartialBase(id), cellBytes, cfg.LineSz)
			b.Compute(0, uint64(cells))
			b.LoadRange(0, workload.PartialBase(id)+cellBytes, boundaryLines*uint64(cfg.LineSz), cfg.LineSz)
			b.Compute(0, boundaryLines*8)
		}
		b.Barrier()

		// Serial section: prefix sum, placement scatter, relabel.
		b.Phase("serial")
		b.Compute(0, uint64(cells+3*n))
		b.StoreRange(0, workload.AddrCenters, uint64(n*i4), cfg.LineSz)
		b.Barrier()
	})
}

var _ workload.Workload = (*Hop)(nil)
