package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailBeyond is the number of samples a reported tail percentile must have
// beyond it; fewer makes the percentile a single outlier.
const tailBeyond = 10

// tailCap is the highest quantile a result header reports as a class's
// tail, next to the median and the 0.99 quantile. Latencies are recorded,
// not end-to-end metrics: on the 2-CPU virtual machine the benchmark was
// written on, ten runs of the same code spread (interquartile range over
// median) by up to 0.9 on the serve_mixed medians and 2 on its tails
// whenever other tenants took the CPUs, beyond any useful regression bound.
const tailCap = 0.95

// tailQuantile returns the highest quantile, capped at limit, that leaves
// at least tailBeyond of n samples strictly above its nearest-rank
// position. Below 2*tailBeyond samples no quantile at or above the median
// qualifies, and the median is returned so the metric stays defined; the
// sample count recorded next to it says how little it rests on.
func tailQuantile(n int, limit float64) float64 {
	if n < 2*tailBeyond {
		return 0.5
	}
	return math.Min(limit, float64(n-tailBeyond)/float64(n))
}

// p99 is the per-layer tail: the 0.99 quantile, or the highest one below
// it that still leaves tailBeyond samples beyond.
func p99(xs []float64) float64 { return quantile(xs, tailQuantile(len(xs), 0.99)) }

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
// +Inf samples — failed requests, which miss every latency limit — sort
// last and are returned as they are.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the nearest-rank median, except that an even count averages
// the two middle values so two samples give their midpoint.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencySummary is one item class's latency distribution in ms. P99 is
// set only when at least tailBeyond samples lie beyond it.
type latencySummary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50_ms"`
	TailQ float64 `json:"tail_q"`
	Tail  float64 `json:"tail_ms"`
	P99   float64 `json:"p99_ms,omitempty"`
}

func summarize(ms []float64) latencySummary {
	s := append([]float64(nil), ms...)
	q := tailQuantile(len(s), tailCap)
	sum := latencySummary{N: len(s), P50: quantile(s, 0.5), TailQ: q, Tail: quantile(s, q)}
	if len(s) >= 100*tailBeyond {
		sum.P99 = quantile(s, 0.99)
	}
	return sum
}

// usage is a snapshot of the process counters the end-to-end and runtime
// metrics are deltas of, and of the machine's steal time.
type usage struct {
	wall   time.Time
	cpu    time.Duration
	allocs uint64
	gcs    uint32
	steal  time.Duration
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), allocs: ms.TotalAlloc, gcs: ms.NumGC, steal: stealTime()}
}

// stealTime is the time the hypervisor ran something else while this
// machine's CPUs wanted to run: the steal column of /proc/stat, summed
// over CPUs (0 where the kernel does not report it).
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
}

// stealShare is the share of the CPUs' time between u0 and u1 that was
// stolen.
func stealShare(u0, u1 usage, cpus int) float64 {
	return ratio((u1.steal - u0.steal).Seconds(), u1.wall.Sub(u0.wall).Seconds()*float64(cpus))
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ratio returns num/den, or 0 when den is 0 (the layer did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
