package main

import (
	"math"
	"testing"
	"time"
)

// TestTailQuantileLeavesTenBeyond pins the percentile rule: the reported
// tail is the highest quantile up to the cap with at least ten samples
// beyond its nearest-rank position.
func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, limit := range []float64{tailCap, 0.99} {
		for n := 2 * tailBeyond; n <= 5000; n++ {
			q := tailQuantile(n, limit)
			rank := int(math.Ceil(q * float64(n)))
			beyond := n - rank
			if beyond < tailBeyond {
				t.Fatalf("n=%d limit=%v: q=%v leaves %d beyond, want >= %d", n, limit, q, beyond, tailBeyond)
			}
			if q < limit && beyond != tailBeyond {
				t.Fatalf("n=%d limit=%v: q=%v leaves %d beyond; a higher quantile would still leave %d", n, limit, q, beyond, tailBeyond)
			}
		}
	}
	for _, c := range []struct {
		n           int
		limit, want float64
	}{
		{1000, 0.99, 0.99}, {1000, tailCap, 0.95}, {100, 0.99, 0.9}, {2*tailBeyond - 1, 0.99, 0.5},
	} {
		if q := tailQuantile(c.n, c.limit); q != c.want {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.limit, q, c.want)
		}
	}
	ones := make([]float64, 999)
	for i := range ones {
		ones[i] = 1
	}
	if s := summarize(ones); s.P99 != 0 {
		t.Errorf("999 samples leave fewer than 10 beyond p99, yet P99 = %v", s.P99)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000..1, unsorted on purpose
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	// A failed request is +Inf: it misses every limit, so once failures
	// reach the tail the tail reads as missed.
	ys := []float64{1, 2, 3, math.Inf(1)}
	if got := quantile(ys, 1); !math.IsInf(got, 1) {
		t.Errorf("max with a failure = %v, want +Inf", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Layer: "harness", Start: 0, End: ms(10)},
		{ID: 2, Parent: 1, Layer: "experiments", Start: ms(2), End: ms(5)},
		{ID: 3, Parent: 1, Layer: "experiments", Start: ms(4), End: ms(8)},
		{ID: 4, Parent: 3, Layer: "report", Start: ms(7), End: ms(12)}, // overruns its parent
	}
	self := selfTimes(spans)
	want := map[string]float64{"harness": 0.004, "experiments": 0.003 + 0.003, "report": 0.005}
	for layer, w := range want {
		if math.Abs(self[layer]-w) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], w)
		}
	}
}
