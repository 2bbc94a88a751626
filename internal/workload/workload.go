// Package workload defines the common interface of the MineBench-substitute
// clustering applications (kmeans, fuzzy, hop) and shared helpers for
// running them natively (goroutines, instrumented phases) and on the
// internal/sim CMP simulator (compiled to kernel-IR programs).
package workload

import (
	"context"
	"errors"
	"fmt"

	"mergescale/internal/sim"
	"mergescale/internal/trace"
	"mergescale/internal/workload/datagen"
)

// Workload is one clustering application.
type Workload interface {
	// Name returns the benchmark name ("kmeans", "fuzzy", "hop").
	Name() string
	// Params returns the workload's tunable configuration as a
	// deterministic, pointer- and map-free value; it is hashed (via %#v)
	// into engine cache keys, so two workloads with equal Name() and
	// Params() must produce identical programs and native runs.
	Params() any
	// DefaultSpec returns the default data-set shape (Table IV "base").
	DefaultSpec() datagen.Spec
	// RunNative executes the algorithm with the given thread count,
	// recording per-section operation counts (and wall times when timing
	// is true) into a fresh profile.
	RunNative(ds *datagen.Dataset, threads int, timing bool) (*trace.Profile, error)
	// OpCounts returns, for every thread count in threads, the profile
	// RunNative reports with timing false on the data set gen(spec), bit
	// for bit, from one derivation for the whole grid: closed forms where
	// the counts depend only on the spec's shape, one native pass where
	// they depend on the values. gen is called only in the second case.
	OpCounts(spec datagen.Spec, gen Generator, threads []int) ([]*trace.Profile, error)
	// BuildProgram compiles the workload into a simulator program for the
	// given machine configuration. scale > 1 divides the point count to
	// keep simulations short (shape-preserving; merge work is unscaled).
	BuildProgram(ds *datagen.Dataset, cfg sim.Config, scale int) (*sim.Program, error)
}

// Generator produces the data set of a spec: datagen.Generate, or a
// memoizing front of it.
type Generator func(datagen.Spec) (*datagen.Dataset, error)

// Memory layout used by all generated simulator programs. Regions are far
// apart so they never share cache lines.
const (
	AddrCenters  = 0x0010_0000 // shared cluster centers / global results
	AddrPartials = 0x0100_0000 // per-thread partial buffers
	AddrPoints   = 0x1000_0000 // read-only point data
	PartialAlign = 0x0001_0000 // spacing between per-thread partial regions
)

// PartialBase returns the base address of thread id's partial buffer.
func PartialBase(id int) uint64 {
	return AddrPartials + uint64(id)*PartialAlign
}

// SimProfile runs the workload on the simulator and converts the per-phase
// cycle counts into a trace.Profile (Work = cycles). Phase names in the
// generated programs must match the trace section names.
func SimProfile(w Workload, ds *datagen.Dataset, cfg sim.Config, scale int) (*trace.Profile, error) {
	r, err := RunSim(w, ds, cfg, scale)
	if err != nil {
		return nil, err
	}
	return r.Profile()
}

// sectionByPhase maps simulator phase names onto trace sections. Hoisted
// to package scope so phasesToProfile (on the per-job result path) does
// not rebuild the map per call.
var sectionByPhase = map[string]trace.Section{
	"init":      trace.SecInit,
	"parallel":  trace.SecParallel,
	"reduction": trace.SecReduction,
	"serial":    trace.SecSerial,
}

// phasesToProfile maps simulator phase cycles onto trace sections.
func phasesToProfile(name string, cores int, phases []sim.PhaseTime) (*trace.Profile, error) {
	p := trace.NewProfile(name, cores)
	for _, ph := range phases {
		sec, ok := sectionByPhase[ph.Name]
		if !ok {
			return nil, fmt.Errorf("workload: unknown phase %q in simulation result", ph.Name)
		}
		p.AddWork(sec, float64(ph.Cycles))
	}
	if p.TotalWork() == 0 {
		return nil, errors.New("workload: simulation produced no phase cycles")
	}
	return p, nil
}

// ResultToProfile maps simulator phase cycles onto trace sections.
func ResultToProfile(name string, cores int, res sim.Result) (*trace.Profile, error) {
	return phasesToProfile(name, cores, res.Phases)
}

// SimSpeedupCurve runs the workload on 1..maxCores (doubling) simulated
// cores and returns speedups relative to the single-core run — the series
// of Figure 2(a). It is the serial reference form of SimSpeedupCurveEngine.
func SimSpeedupCurve(w Workload, ds *datagen.Dataset, coreCounts []int, scale int) (map[int]float64, error) {
	return SimSpeedupCurveEngine(context.Background(), nil, w, ds, coreCounts, scale)
}

// NativeProfiles returns the workload's native profiles over the thread
// grid on the data set gen(spec). Operation counts (timing false) come
// from one OpCounts derivation for the whole grid; wall times (timing
// true) need one real run per thread count.
func NativeProfiles(w Workload, spec datagen.Spec, gen Generator, threadCounts []int, timing bool) ([]*trace.Profile, error) {
	if !timing {
		return w.OpCounts(spec, gen, threadCounts)
	}
	ds, err := gen(spec)
	if err != nil {
		return nil, err
	}
	var out []*trace.Profile
	for _, th := range threadCounts {
		p, err := w.RunNative(ds, th, true)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// SimProfiles runs the workload on the simulator across core counts. It is
// the serial reference form of SimProfilesEngine.
func SimProfiles(w Workload, ds *datagen.Dataset, coreCounts []int, scale int) ([]*trace.Profile, error) {
	return SimProfilesEngine(context.Background(), nil, w, ds, coreCounts, scale)
}
