// Package parallel is the native execution runtime used by the workload
// implementations: a fixed pool of long-lived workers (one per simulated
// thread), static-chunk parallel-for, a reusable barrier, and privatized
// per-thread reduction buffers.
//
// The MineBench applications the paper studies are pthreads programs with a
// fork-join structure per iteration: a parallel phase over the data points,
// a barrier, and a merging phase that combines per-thread partial results.
// This package reproduces that structure with goroutines. Workers are
// created once and reused across phases so that per-iteration timing
// measures the algorithm, not goroutine creation.
package parallel

import (
	"errors"
	"fmt"
	"sync"

	"mergescale/internal/shapepool"
)

// Pool is a fixed-size team of worker goroutines identified by ids
// 0..Threads-1. The zero value is not usable; call NewPool (one-shot,
// Close when done) or AcquirePool (recycled through the per-size free
// list, Release when done).
type Pool struct {
	threads  int
	work     []chan func(id int)
	done     chan int
	wg       sync.WaitGroup
	closed   bool
	released bool
	mu       sync.Mutex

	// For-scratch, reused across For calls so a parallel-for costs no
	// allocations: forFn is the one adapter closure (built in NewPool)
	// dispatching the current forBody over forRanges. Written only by the
	// orchestrating goroutine before the channel sends that publish them
	// to workers; For (like Run) is not safe for concurrent calls on one
	// pool.
	forBody   func(id, lo, hi int)
	forRanges []Range
	forFn     func(id int)
}

// teamPools maps thread count to the free list of released (but still
// running) pools for that size. Workload native runs start a team per run;
// recycling keeps the workers and their channels instead of respawning
// them hundreds of times per experiment suite.
//
// This is an explicit bounded list, NOT a sync.Pool: a parked team owns
// live goroutines, and a sync.Pool silently drops entries under GC
// pressure — dropping a parked team would strand its workers blocked on
// their work channels forever (the one pooled object here that a GC drop
// cannot reclaim). Overflow beyond the cap is Closed instead of parked.
var teamPools struct {
	sync.Mutex
	m map[int][]*Pool
}

// maxParkedTeams bounds the free list per team size. The experiment suite
// cycles through a handful of thread counts with no concurrent acquirers
// per size in the common case; a small cap keeps worst-case idle
// goroutines bounded at maxParkedTeams × Σsizes.
const maxParkedTeams = 4

// AcquirePool returns a running worker team of size n, reusing a released
// one when available. Pair with Release; Close also remains valid (it
// simply makes the team non-recyclable).
func AcquirePool(n int) (*Pool, error) {
	if n < 1 {
		return nil, errors.New("parallel: pool size must be >= 1")
	}
	teamPools.Lock()
	if list := teamPools.m[n]; len(list) > 0 {
		p := list[len(list)-1]
		teamPools.m[n] = list[:len(list)-1]
		teamPools.Unlock()
		p.released = false
		return p, nil
	}
	teamPools.Unlock()
	return NewPool(n)
}

// Release parks the team (workers stay alive, blocked on their work
// channels) in the free list for its size, or shuts it down when the list
// is full. The pool must not be used afterwards; releasing twice or
// releasing a closed pool is a checked no-op.
func (p *Pool) Release() {
	p.mu.Lock()
	if p.closed || p.released {
		p.mu.Unlock()
		return
	}
	p.released = true
	p.mu.Unlock()
	teamPools.Lock()
	if teamPools.m == nil {
		teamPools.m = make(map[int][]*Pool)
	}
	if len(teamPools.m[p.threads]) < maxParkedTeams {
		teamPools.m[p.threads] = append(teamPools.m[p.threads], p)
		teamPools.Unlock()
		return
	}
	teamPools.Unlock()
	p.Close()
}

// NewPool starts a team of n workers. It returns an error when n < 1.
func NewPool(n int) (*Pool, error) {
	if n < 1 {
		return nil, errors.New("parallel: pool size must be >= 1")
	}
	p := &Pool{
		threads: n,
		work:    make([]chan func(int), n),
		done:    make(chan int, n),
	}
	p.forRanges = make([]Range, n)
	p.forFn = func(id int) {
		r := p.forRanges[id]
		if r.Lo < r.Hi {
			p.forBody(id, r.Lo, r.Hi)
		}
	}
	for i := 0; i < n; i++ {
		p.work[i] = make(chan func(int), 1)
		p.wg.Add(1)
		go p.worker(i)
	}
	return p, nil
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for fn := range p.work[id] {
		fn(id)
		p.done <- id
	}
}

// Threads returns the team size.
func (p *Pool) Threads() int { return p.threads }

// Run executes fn(id) on every worker and blocks until all complete.
// It panics if the pool has been closed or released (programming error,
// like using a closed channel).
func (p *Pool) Run(fn func(id int)) {
	if p.released {
		panic("parallel: Run on a released Pool")
	}
	for i := 0; i < p.threads; i++ {
		p.work[i] <- fn
	}
	for i := 0; i < p.threads; i++ {
		<-p.done
	}
}

// Close shuts the workers down. The pool must not be used afterwards.
// Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for i := range p.work {
		close(p.work[i])
	}
	p.wg.Wait()
}

// Range describes the half-open index interval [Lo, Hi) a worker owns.
type Range struct{ Lo, Hi int }

// Split statically partitions n items across t threads as evenly as
// possible: the first n%t chunks receive one extra item, mirroring the
// OpenMP static schedule MineBench uses.
func Split(n, t int) []Range {
	if t < 1 {
		t = 1
	}
	return splitInto(make([]Range, t), n, t)
}

// splitInto writes the static partition into dst (len >= t) and returns
// dst[:t] — the allocation-free core of Split used by For's scratch.
func splitInto(dst []Range, n, t int) []Range {
	base := n / t
	rem := n % t
	lo := 0
	for i := 0; i < t; i++ {
		size := base
		if i < rem {
			size++
		}
		dst[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return dst[:t]
}

// ChunkOf returns the index of the Split(n, t) chunk that owns item i
// (0 <= i < n) in O(1): the first n%t chunks hold base+1 items, the
// rest base.
func ChunkOf(n, t, i int) int {
	base, rem := n/t, n%t
	if big := rem * (base + 1); i >= big {
		return rem + (i-big)/base
	}
	return i / (base + 1)
}

// For runs body(id, lo, hi) on every worker with the static partition of n
// items and blocks until all chunks are done. The partition and dispatch
// closure are pool-owned scratch, so a For call allocates nothing beyond
// the caller's body closure; like Run, For must not be called concurrently
// on one pool.
func (p *Pool) For(n int, body func(id, lo, hi int)) {
	splitInto(p.forRanges, n, p.threads)
	p.forBody = body
	p.Run(p.forFn)
	p.forBody = nil
}

// Barrier is a reusable sense-reversing barrier for a fixed number of
// parties. It mirrors the pthread barrier the original benchmarks use when
// a parallel phase is followed by a merge executed by one thread.
type Barrier struct {
	parties int
	mu      sync.Mutex
	cond    *sync.Cond
	count   int
	sense   bool
}

// NewBarrier creates a barrier for n parties; n must be >= 1.
func NewBarrier(n int) (*Barrier, error) {
	if n < 1 {
		return nil, fmt.Errorf("parallel: barrier parties must be >= 1, got %d", n)
	}
	b := &Barrier{parties: n}
	b.cond = sync.NewCond(&b.mu)
	return b, nil
}

// Wait blocks until all parties have called Wait. It returns true for
// exactly one caller per generation (the "serial thread", analogous to
// PTHREAD_BARRIER_SERIAL_THREAD), which the workloads use to elect the
// merging thread.
func (b *Barrier) Wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	mySense := b.sense
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.sense = !b.sense
		b.cond.Broadcast()
		return true
	}
	for b.sense == mySense {
		b.cond.Wait()
	}
	return false
}

// Parties returns the number of participants.
func (b *Barrier) Parties() int { return b.parties }

// Privatized holds per-thread partial-result buffers for a reduction over
// `width` float64 elements: the "partial_centers" arrays of Algorithm 1.
type Privatized struct {
	width    int
	bufs     [][]float64
	released bool
}

// NewPrivatized allocates t buffers of the given width.
func NewPrivatized(t, width int) *Privatized {
	bufs := make([][]float64, t)
	for i := range bufs {
		bufs[i] = make([]float64, width)
	}
	return &Privatized{width: width, bufs: bufs}
}

// privatizedPools maps (threads, width) to the free list of released
// buffer sets. Native workload runs allocate one set per run; recycling
// keeps the float buffers across the hundreds of runs an experiment suite
// performs.
var privatizedPools shapepool.Registry[[2]int]

// AcquirePrivatized returns a zeroed buffer set, reusing a released one of
// the same shape when available. Pair with Release.
func AcquirePrivatized(t, width int) *Privatized {
	if pv, _ := privatizedPools.For([2]int{t, width}).Get().(*Privatized); pv != nil {
		pv.Reset()
		pv.released = false
		return pv
	}
	return NewPrivatized(t, width)
}

// Release parks the buffer set for reuse. The caller must not touch any
// buffer afterwards (results must be copied out first — the reduction
// writes into a caller-owned destination, so the usual pattern is safe).
// Releasing twice is a checked no-op, matching Pool and sim.Machine — a
// double put would hand one buffer set to two concurrent owners.
func (pv *Privatized) Release() {
	if pv.released {
		return
	}
	pv.released = true
	privatizedPools.For([2]int{pv.Threads(), pv.width}).Put(pv)
}

// Buf returns thread id's private buffer.
func (pv *Privatized) Buf(id int) []float64 { return pv.bufs[id] }

// Width returns the element count per buffer.
func (pv *Privatized) Width() int { return pv.width }

// Threads returns the number of buffers.
func (pv *Privatized) Threads() int { return len(pv.bufs) }

// Reset zeroes every buffer; called at the top of each iteration.
func (pv *Privatized) Reset() {
	for _, b := range pv.bufs {
		for i := range b {
			b[i] = 0
		}
	}
}

// MergeInto accumulates every private buffer into dst (the merging phase of
// Algorithm 1: for each cluster, for each thread, add the partial result).
// dst must have length Width. It returns the number of additions performed,
// which grows linearly with the thread count — the effect the paper models.
func (pv *Privatized) MergeInto(dst []float64) int {
	ops := 0
	for _, b := range pv.bufs {
		for i, v := range b {
			dst[i] += v
			ops++
		}
	}
	return ops
}
