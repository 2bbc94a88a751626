package workload_test

import (
	"fmt"
	"math"
	"testing"

	"mergescale/internal/reduction"
	"mergescale/internal/stats"
	"mergescale/internal/trace"
	"mergescale/internal/workload"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/datagen"
	"mergescale/internal/workload/fuzzy"
	"mergescale/internal/workload/hop"
	"mergescale/internal/workload/kmeans"
)

// oracleThreads is the thread grid of the differential tests: the
// experiments' 1/2/4/8 plus counts that split the data unevenly.
var oracleThreads = []int{1, 2, 3, 4, 5, 8}

var strategies = []reduction.Strategy{reduction.Linear, reduction.Tree, reduction.Parallel}

// quickSized shrinks a spec the way the experiments' quick mode does.
func quickSized(spec datagen.Spec) datagen.Spec {
	spec.N /= 8
	if spec.N < 1024 {
		spec.N = 1024
	}
	return spec
}

// sameProfile fails unless got carries want's name, thread count and
// per-section work bit for bit, and no wall time.
func sameProfile(t *testing.T, label string, got, want *trace.Profile) {
	t.Helper()
	if got.Name != want.Name || got.Threads != want.Threads {
		t.Errorf("%s: profile %s/%d, want %s/%d", label, got.Name, got.Threads, want.Name, want.Threads)
	}
	for _, s := range trace.Sections() {
		g, w := got.SectionWork(s), want.SectionWork(s)
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("%s: %s work %v (%#x), want %v (%#x)", label, s, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		if got.SectionDuration(s) != 0 {
			t.Errorf("%s: %s has wall time in op-count mode", label, s)
		}
	}
}

// TestOpCountsMatchRun is the differential oracle of the derived
// profiles: for every workload, every Table IV and fig2c spec at full and
// quick size, every merge strategy, and every thread count, OpCounts over
// the grid must equal a direct RunNative(ds, T, false) bit for bit. The
// closed forms must not generate data; hop must generate it once. Under
// -race only the quick sizes run: the full sizes take minutes there and
// add no concurrency the quick sizes lack.
func TestOpCountsMatchRun(t *testing.T) {
	type opCase struct {
		w     workload.Workload
		specs []datagen.Spec
		// passes is how many data sets OpCounts may generate per grid.
		passes int
	}
	var cases []opCase
	for _, s := range strategies {
		km := kmeans.New()
		km.Cfg.Iters, km.Cfg.Strategy = 2, s
		fz := fuzzy.New()
		fz.Cfg.Iters, fz.Cfg.Strategy = 2, s
		cases = append(cases, opCase{km, datagen.TableIVKMeans(), 0}, opCase{fz, datagen.TableIVFuzzy(), 0})
	}
	for _, m := range []contend.Mode{contend.Joined, contend.Split} {
		c := contend.New()
		c.Cfg.Mode = m
		cases = append(cases, opCase{c, []datagen.Spec{c.DefaultSpec()}, 0})
	}
	cases = append(cases, opCase{hop.New(), datagen.TableIVHop(), 1})

	datasets := map[datagen.Spec]*datagen.Dataset{}
	for _, c := range cases {
		for _, full := range c.specs {
			sizes := []datagen.Spec{full, quickSized(full)}
			if raceEnabled {
				sizes = sizes[1:]
			}
			for _, spec := range sizes {
				ds := datasets[spec]
				if ds == nil {
					var err error
					if ds, err = datagen.Generate(spec); err != nil {
						t.Fatal(err)
					}
					datasets[spec] = ds
				}
				gens := 0
				gen := func(s datagen.Spec) (*datagen.Dataset, error) {
					gens++
					if s != spec {
						t.Errorf("gen(%+v), want the grid's spec %+v", s, spec)
					}
					return ds, nil
				}
				derived, err := c.w.OpCounts(spec, gen, oracleThreads)
				if err != nil {
					t.Fatalf("%s %s N=%d: %v", c.w.Name(), spec.Label, spec.N, err)
				}
				if gens != c.passes {
					t.Errorf("%s %s N=%d: generated %d data sets, want %d", c.w.Name(), spec.Label, spec.N, gens, c.passes)
				}
				if len(derived) != len(oracleThreads) {
					t.Fatalf("%s %s: %d profiles for %d thread counts", c.w.Name(), spec.Label, len(derived), len(oracleThreads))
				}
				for i, th := range oracleThreads {
					direct, err := c.w.RunNative(ds, th, false)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s %+v %s N=%d T=%d", c.w.Name(), c.w.Params(), spec.Label, spec.N, th)
					sameProfile(t, label, derived[i], direct)
				}
			}
		}
	}
}

// TestClusteringOpCountsIgnoreValues: kmeans and fuzzy count the same
// operations on any points of one shape. Scrambling every coordinate
// leaves both the direct Run profiles and the derived ones unchanged,
// under every merge strategy.
func TestClusteringOpCountsIgnoreValues(t *testing.T) {
	spec := quickSized(datagen.KMeansCenter)
	ds, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	scrambled := &datagen.Dataset{Spec: ds.Spec, Points: make([]float64, len(ds.Points)), Truth: ds.Truth}
	rng := stats.NewRand(99)
	for i := range scrambled.Points {
		scrambled.Points[i] = (rng.Float64() - 0.5) * 1e6
	}
	noGen := func(datagen.Spec) (*datagen.Dataset, error) {
		t.Error("closed-form OpCounts generated a data set")
		return ds, nil
	}
	for _, s := range strategies {
		km := kmeans.New()
		km.Cfg.Iters, km.Cfg.Strategy = 3, s
		fz := fuzzy.New()
		fz.Cfg.Iters, fz.Cfg.Strategy = 3, s
		for _, w := range []workload.Workload{km, fz} {
			derived, err := w.OpCounts(spec, noGen, oracleThreads)
			if err != nil {
				t.Fatal(err)
			}
			for i, th := range oracleThreads {
				orig, err := w.RunNative(ds, th, false)
				if err != nil {
					t.Fatal(err)
				}
				scr, err := w.RunNative(scrambled, th, false)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s %s T=%d", w.Name(), s, th)
				sameProfile(t, label+" scrambled run", scr, orig)
				sameProfile(t, label+" derived", derived[i], scr)
			}
		}
	}
}

// TestOpCountsRejectBadInput: the derived path fails where Run (or the
// data generator) would.
func TestOpCountsRejectBadInput(t *testing.T) {
	spec := datagen.Spec{Label: "bad", N: 100, D: 3, C: 4, Seed: 1}
	for _, w := range []workload.Workload{kmeans.New(), fuzzy.New(), contend.New(), hop.New()} {
		if _, err := w.OpCounts(spec, datagen.Generate, []int{1, 0}); err == nil {
			t.Errorf("%s: thread count 0 should fail", w.Name())
		}
		bad := spec
		bad.C = 0
		if _, err := w.OpCounts(bad, datagen.Generate, []int{1}); err == nil {
			t.Errorf("%s: invalid spec should fail", w.Name())
		}
	}
	small := datagen.Spec{Label: "small", N: 4, D: 2, C: 1, Seed: 1}
	for _, w := range []workload.Workload{kmeans.New(), fuzzy.New()} {
		if _, err := w.OpCounts(small, datagen.Generate, []int{1}); err == nil {
			t.Errorf("%s: K > N should fail", w.Name())
		}
	}
}
