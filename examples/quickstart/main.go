// Quickstart: cluster a synthetic data set with parallel k-means, watch the
// merging phase grow with the thread count, and ask the extended Amdahl
// model what that growth does to scalability.
package main

import (
	"fmt"
	"log"

	"mergescale/internal/core"
	"mergescale/internal/trace"
	"mergescale/internal/workload"
	"mergescale/internal/workload/datagen"
	"mergescale/internal/workload/kmeans"
)

func main() {
	// 1. Take a MineBench-shaped data set (N=17695, D=9, C=8) and count
	// parallel k-means' per-section operations at several thread counts.
	// The counts depend only on the data set's shape, so the whole grid is
	// derived at once and datagen.Generate is never called; timing true
	// would generate the data and run the kernel once per thread count.
	w := kmeans.New()
	w.Cfg.Iters = 5
	threadCounts := []int{1, 2, 4, 8, 16}
	profiles, err := workload.NativeProfiles(w, datagen.KMeansBase, datagen.Generate, threadCounts, false)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("serial-section work, normalized to 1 thread (paper Fig 2b/2c):")
	threads, norm, err := trace.GrowthSeries(profiles, false)
	if err != nil {
		log.Fatal(err)
	}
	for i, th := range threads {
		fmt.Printf("  %2d threads: %.2fx\n", th, norm[i])
	}

	// 2. Extract the model parameters (f, fcon, fored) from the profiles.
	app, err := trace.Extract(profiles, trace.ExtractOptions{Growth: core.GrowthLinear})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nextracted parameters: f=%.5f fcon=%.2f fored=%.2f\n",
		app.F, app.FCon, app.FOred)

	// 3. Predict scalability with and without the reduction overhead.
	fmt.Println("\npredicted speedup on p equal cores:")
	fmt.Printf("  %8s  %12s  %12s\n", "cores", "extended", "amdahl")
	for _, p := range core.DoublingCoreCounts(256) {
		ext := core.EqualPerfCMP(app, p)
		amd := core.EqualPerfCMP(app.WithGrowth(core.GrowthNone), p)
		fmt.Printf("  %8d  %12.1f  %12.1f\n", p, ext, amd)
	}
	peakP, peakS := core.PeakCoreCount(app, 4096)
	fmt.Printf("\nthe extended model peaks at %d cores (speedup %.0f) — Amdahl alone would promise %.0f.\n",
		peakP, peakS, core.AmdahlLimit(app.F))
}
