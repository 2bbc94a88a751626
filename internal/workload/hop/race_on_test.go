//go:build race

package hop

// raceEnabled reports that this binary was built with -race, under which
// sync.Pool drops items at random and instrumentation allocates.
const raceEnabled = true
