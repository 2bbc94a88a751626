package reduction

import (
	"errors"
	"fmt"

	"mergescale/internal/parallel"
)

// Strategy identifies a merging-phase implementation.
type Strategy int

const (
	// Linear merges partials one thread at a time on a single core:
	// computation grows linearly with t (Algorithm 1 in the paper).
	Linear Strategy = iota
	// Tree merges pairwise in ceil(log2(t)) rounds; each round halves the
	// number of live partial vectors.
	Tree
	// Parallel assigns each thread x/t elements of the reduction; the
	// computation per thread is constant, but every thread must read all
	// other threads' partials (all-to-all communication).
	Parallel
)

// String returns the strategy name used in reports.
func (s Strategy) String() string {
	switch s {
	case Linear:
		return "linear"
	case Tree:
		return "tree"
	case Parallel:
		return "parallel"
	default:
		return fmt.Sprintf("reduction.Strategy(%d)", int(s))
	}
}

// ParseStrategy converts a name back to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "linear":
		return Linear, nil
	case "tree":
		return Tree, nil
	case "parallel":
		return Parallel, nil
	}
	return 0, fmt.Errorf("reduction: unknown strategy %q", s)
}

// Cost reports the work performed by one reduction.
type Cost struct {
	AddOps      int // floating-point additions executed in total
	CriticalOps int // additions on the longest dependency path (serial time)
	CommElems   int // partial-result elements moved between threads
	Rounds      int // synchronization rounds (barriers)
}

// Reduce merges the partial vectors in pv into dst using the strategy,
// optionally running the Parallel strategy on the supplied pool (the Linear
// and Tree strategies ignore the pool: Linear is single-threaded by
// definition, and Tree's round structure is executed by the calling thread
// level-by-level to keep its cost accounting exact). It returns the cost
// breakdown. dst must have length pv.Width().
//
// The partial buffers are consumed: Tree reduction accumulates in place.
func Reduce(s Strategy, pv *parallel.Privatized, dst []float64, pool *parallel.Pool) (Cost, error) {
	if len(dst) != pv.Width() {
		return Cost{}, errors.New("reduction: dst width mismatch")
	}
	if pv.Width() == 0 {
		return Cost{}, nil
	}
	switch s {
	case Linear:
		return reduceLinear(pv, dst), nil
	case Tree:
		return reduceTree(pv, dst), nil
	case Parallel:
		return reduceParallel(pv, dst, pool)
	default:
		return Cost{}, fmt.Errorf("reduction: unknown strategy %d", int(s))
	}
}

// ShapeCost returns the exact Cost that Reduce reports for merging t
// partial vectors of x elements with strategy s. The cost depends only
// on this shape, never on the values, so op-count profiles can be
// derived without running the merge. Unlike PredictedCritical (the
// model's growth function), it follows Reduce at t = 1: a tree over a
// single partial runs no round and charges nothing.
func ShapeCost(s Strategy, t, x int) (Cost, error) {
	if t < 1 {
		return Cost{}, errors.New("reduction: thread count must be >= 1")
	}
	if x == 0 {
		return Cost{}, nil // Reduce merges nothing
	}
	switch s {
	case Linear:
		// One thread does every addition, so all of them are on the
		// critical path; each non-local partial moves to the merger.
		return Cost{AddOps: t * x, CriticalOps: t * x, CommElems: (t - 1) * x, Rounds: 1}, nil
	case Tree:
		// Each round adds the upper half of the live vectors onto the
		// lower half concurrently: the critical path grows by one
		// vector-add per round, and every added vector moves once.
		c := Cost{}
		for live := t; live > 1; live -= live / 2 {
			c.Rounds++
			c.AddOps += live / 2 * x
			c.CriticalOps += x
		}
		c.CommElems = c.AddOps
		return c, nil
	case Parallel:
		// Each thread owns ceil(x/t) elements and adds all t partials of
		// each; every thread reads t-1 remote chunks and the merged
		// results are broadcast back: 2·(t-1)·x transfers (the paper's
		// 2·(n-1)·x communication count).
		chunk := (x + t - 1) / t
		return Cost{AddOps: t * x, CriticalOps: chunk * t, CommElems: 2 * (t - 1) * x, Rounds: 1}, nil
	}
	return Cost{}, fmt.Errorf("reduction: unknown strategy %d", int(s))
}

func reduceLinear(pv *parallel.Privatized, dst []float64) Cost {
	for id := 0; id < pv.Threads(); id++ {
		buf := pv.Buf(id)
		for i, v := range buf {
			dst[i] += v
		}
	}
	c, _ := ShapeCost(Linear, pv.Threads(), pv.Width())
	return c
}

func reduceTree(pv *parallel.Privatized, dst []float64) Cost {
	t := pv.Threads()
	live := make([][]float64, t)
	for i := 0; i < t; i++ {
		live[i] = pv.Buf(i)
	}
	for len(live) > 1 {
		half := len(live) / 2
		for i := 0; i < half; i++ {
			a, b := live[i], live[len(live)-1-i]
			for j, v := range b {
				a[j] += v
			}
		}
		live = live[:len(live)-half]
	}
	copy(dst, live[0])
	c, _ := ShapeCost(Tree, t, pv.Width())
	return c
}

func reduceParallel(pv *parallel.Privatized, dst []float64, pool *parallel.Pool) (Cost, error) {
	t, x := pv.Threads(), pv.Width()
	body := func(id, lo, hi int) {
		for th := 0; th < t; th++ {
			buf := pv.Buf(th)
			for i := lo; i < hi; i++ {
				dst[i] += buf[i]
			}
		}
	}
	if pool != nil {
		if pool.Threads() != t {
			return Cost{}, fmt.Errorf("reduction: pool size %d != partial count %d", pool.Threads(), t)
		}
		pool.For(x, body)
	} else {
		for id, r := range parallel.Split(x, t) {
			if r.Lo < r.Hi {
				body(id, r.Lo, r.Hi)
			}
		}
	}
	return ShapeCost(Parallel, t, x)
}

// PredictedCritical returns the model's critical-path operation count for a
// reduction over x elements on t threads, matching the growth functions
// used by internal/core: linear -> t·x, tree -> ceil(log2(t))·x (min 1
// round), parallel -> ceil(x/t)·t.
func PredictedCritical(s Strategy, t, x int) int {
	if t < 1 {
		t = 1
	}
	switch s {
	case Linear:
		return t * x
	case Tree:
		rounds := 0
		for n := t; n > 1; n = (n + 1) / 2 {
			rounds++
		}
		if rounds == 0 {
			rounds = 1
		}
		return rounds * x
	case Parallel:
		chunk := x / t
		if x%t != 0 {
			chunk++
		}
		return chunk * t
	default:
		return 0
	}
}

// CommCount returns the model's communicated-element count: (t-1)·x for
// linear and tree gathers, 2·(t-1)·x for the parallel all-to-all exchange
// with result broadcast (Section V-E).
func CommCount(s Strategy, t, x int) int {
	if t <= 1 {
		return 0
	}
	switch s {
	case Linear, Tree:
		return (t - 1) * x
	case Parallel:
		return 2 * (t - 1) * x
	default:
		return 0
	}
}
