//go:build race

package workload_test

// raceEnabled reports that this binary was built with -race, whose
// instrumentation makes full-size native kernels too slow to rerun.
const raceEnabled = true
