package contend

import (
	"slices"
	"testing"

	"mergescale/internal/sim"
	"mergescale/internal/workload/datagen"
)

// TestSharedTraceIsReadOnly checks the memoized trace BuildProgram
// compiles from: it equals a fresh zipfTrace, and neither compiling and
// simulating programs in both modes nor a native run changes it.
func TestSharedTraceIsReadOnly(t *testing.T) {
	w := New()
	spec := w.DefaultSpec()
	spec.N = 4096
	spec.Seed = 8807 // a key no other test memoizes
	ds, err := datagen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	fresh := zipfTrace(spec.Seed, spec.N, w.Cfg)
	shared := sharedTrace(spec.Seed, spec.N, w.Cfg)
	if !slices.Equal(shared, fresh) {
		t.Fatal("shared trace differs from a fresh zipfTrace")
	}
	for _, mode := range []Mode{Joined, Split} {
		c := w.Cfg
		c.Mode = mode
		cfg := sim.DefaultConfig(4)
		prog, err := (&Contend{Cfg: c}).BuildProgram(ds, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(prog); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Run(ds, c, 2, false); err != nil {
			t.Fatal(err)
		}
	}
	if again := sharedTrace(spec.Seed, spec.N, w.Cfg); !slices.Equal(again, fresh) || &again[0] != &shared[0] {
		t.Error("the memoized trace changed, or was redrawn, after programs were built and run")
	}
}

// TestSharedTraceKeyedByEveryInput checks the memo tells traces apart by
// seed, length, Alpha and Keys: a config differing from a memoized one in
// any of them gets its own trace, equal to a fresh zipfTrace.
func TestSharedTraceKeyedByEveryInput(t *testing.T) {
	const seed, n = 8808, 2048
	base := DefaultConfig()
	sharedTrace(seed, n, base)
	alpha := base
	alpha.Alpha = 2
	keys := base
	keys.Keys = 64
	cases := []struct {
		name string
		seed uint64
		n    int
		c    Config
	}{
		{"seed", seed + 1, n, base},
		{"n", seed, n / 2, base},
		{"alpha", seed, n, alpha},
		{"keys", seed, n, keys},
	}
	for _, tc := range cases {
		if got := sharedTrace(tc.seed, tc.n, tc.c); !slices.Equal(got, zipfTrace(tc.seed, tc.n, tc.c)) {
			t.Errorf("a config differing in %s got another config's trace", tc.name)
		}
	}
}
