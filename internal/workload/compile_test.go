package workload_test

import (
	"reflect"
	"sync"
	"testing"

	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/contend"
)

// programSources returns every workload that compiles simulator programs,
// contend in both modes.
func programSources() []workload.Workload {
	split := contend.New()
	split.Cfg.Mode = contend.Split
	return append(allWorkloads(), contend.New(), split)
}

// TestBuildProgramExactSize checks that every workload's program streams
// are allocated at exactly their length: no append slack, no growth copy.
func TestBuildProgramExactSize(t *testing.T) {
	ds := testData(t, 17)
	for _, w := range programSources() {
		for _, cores := range []int{1, 3, 16, 64} {
			prog, err := w.BuildProgram(ds, sim.DefaultConfig(cores), 1)
			if err != nil {
				t.Fatalf("%s cores %d: %v", w.Name(), cores, err)
			}
			for id, s := range prog.Streams {
				if len(s) != cap(s) {
					t.Errorf("%s cores %d core %d: len %d, cap %d", w.Name(), cores, id, len(s), cap(s))
				}
			}
		}
	}
}

// TestBuildProgramConcurrent builds each workload's program from 8
// goroutines at once (the engine compiles concurrently, and contend's
// trace memo sees concurrent misses: no other test uses this data set's
// seed) and requires every program to equal a serial build.
func TestBuildProgramConcurrent(t *testing.T) {
	ds := testData(t, 9103)
	cfg := sim.DefaultConfig(8)
	for _, w := range programSources() {
		progs := make([]*sim.Program, 8)
		errs := make([]error, 8)
		var wg sync.WaitGroup
		for i := range progs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				progs[i], errs[i] = w.BuildProgram(ds, cfg, 1)
			}()
		}
		wg.Wait()
		want, err := w.BuildProgram(ds, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range progs {
			if errs[i] != nil {
				t.Fatalf("%s build %d: %v", w.Name(), i, errs[i])
			}
			if !reflect.DeepEqual(p, want) {
				t.Errorf("%s build %d differs from a serial build", w.Name(), i)
			}
		}
	}
}
