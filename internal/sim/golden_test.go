package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// resultDigest is the SHA-256 (hex) of a Result's Cycles, Counters,
// CoreTime and Phases in a fixed text form. Counters print with field
// names, so adding a counter changes every digest — a golden that must
// be re-captured on purpose, never silently.
func resultDigest(r Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "cycles=%d\ncounters=%+v\ncoretime=%v\nphases=%v\n",
		r.Cycles, r.Counters, r.CoreTime, r.Phases)
	return hex.EncodeToString(h.Sum(nil))
}

// randomProgram generates a valid program mixing compute bursts, loads and
// stores over shared hot lines, a shared read region and private streams,
// with phase markers and barriers — the full op vocabulary.
func randomProgram(t testing.TB, rng *rand.Rand, cores, segments int) *Program {
	t.Helper()
	b := NewBuilder(cores)
	names := []string{"init", "parallel", "reduction", "serial"}
	for seg := 0; seg < segments; seg++ {
		if rng.Intn(2) == 0 {
			b.Phase(names[rng.Intn(len(names))])
		}
		for id := 0; id < cores; id++ {
			for k, n := 0, rng.Intn(40); k < n; k++ {
				switch rng.Intn(5) {
				case 0:
					b.Compute(id, uint64(1+rng.Intn(50)))
				case 1: // shared read-mostly region
					b.Load(id, 0x10000+64*uint64(rng.Intn(64)))
				case 2: // shared hot lines (upgrades, invalidation storms)
					b.Store(id, 0x20000+64*uint64(rng.Intn(8)))
				case 3: // private streaming (misses, evictions)
					b.Load(id, uint64(id+1)<<20+64*uint64(rng.Intn(2048)))
				case 4: // read-modify-write ping-pong
					addr := 0x30000 + 64*uint64(rng.Intn(16))
					b.Load(id, addr).Store(id, addr)
				}
			}
		}
		b.Barrier()
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRunSerialGoldenRandom pins the serial simulator's exact output on
// random programs: each (seed, cores) case must reproduce its recorded
// digest of Cycles, Counters, CoreTime and Phases, on a fresh machine
// and again after Reset. A protocol, scheduler or LRU change that moves
// any counter or clock fails here; re-capture the constants only for a
// change that means to alter simulated timing.
func TestRunSerialGoldenRandom(t *testing.T) {
	golden := []struct {
		seed   int64
		cores  int
		digest string
	}{
		{1, 2, "7ed2b3030b40f78578aa168d3c64c96d772bab7d37d85d1471b1a071921082f9"},
		{1, 8, "9714525485f317ff027880ac3f876a20f2107cd23b3c893684dd37dc3580622c"},
		{1, 64, "0ae6be18a868d2d3669439ddf37c02572e212637ace1ba440d2ad904ad5a4f5b"},
		{2, 2, "1851e047f36139026c1609ac64651ffff9df664b26bf57a853d6b807cc0619a6"},
		{2, 8, "76220ced6cd8032e03b9f782dc87076e7d921754a856ed96e23d2e7679d9f8b4"},
		{2, 64, "d257bebb818cdfb887410c9dc7f5017dccbc4b75a77c78c2c1f49954e2e20585"},
		{3, 2, "1bbb5ca09ad2fa91939c1161068bbf7f9f4df258da4be57147287a9fecbba137"},
		{3, 8, "b63b31a2d4ebca6e2f2f9df7cc7821f7cf3215082f5ec3a2b0122e1fa75464c2"},
		{3, 64, "0d0b4a941f96813aad64c8efd741b1914e01197eb05980fdd3bb1536e731ff1c"},
	}
	for _, g := range golden {
		rng := rand.New(rand.NewSource(g.seed))
		cfg := DefaultConfig(g.cores)
		if rng.Intn(2) == 0 {
			// Small caches force evictions and L2 back-invalidations.
			cfg.L1Size = 4 << 10
			cfg.L2Size = 64 << 10
		}
		prog := randomProgram(t, rng, g.cores, 1+rng.Intn(4))
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			if rep > 0 {
				m.Reset()
			}
			res, err := m.Run(prog)
			if err != nil {
				t.Fatalf("seed %d cores %d rep %d: %v", g.seed, g.cores, rep, err)
			}
			if got := resultDigest(res); got != g.digest {
				t.Errorf("seed %d cores %d rep %d: digest %s, want %s", g.seed, g.cores, rep, got, g.digest)
			}
		}
	}
}
