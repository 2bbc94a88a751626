package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomEmit returns an emit function that issues the same random program
// on every call: compute bursts, single loads and stores, line ranges,
// phases and barriers, with some cores left empty.
func randomEmit(seed int64, cores int) func(*Builder) {
	return func(b *Builder) {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"init", "parallel", "reduction", "serial"}
		for seg := 0; seg < 4; seg++ {
			b.Phase(names[rng.Intn(len(names))])
			for id := 0; id < cores; id++ {
				if id%3 == 2 {
					continue // an empty stream apart from barriers
				}
				for k, n := 0, rng.Intn(20); k < n; k++ {
					switch rng.Intn(5) {
					case 0:
						b.Compute(id, uint64(rng.Intn(50))) // 0 issues nothing
					case 1:
						b.Load(id, 64*uint64(rng.Intn(256)))
					case 2:
						b.Store(id, 64*uint64(rng.Intn(256)))
					case 3:
						b.LoadRange(id, uint64(rng.Intn(4096)), uint64(rng.Intn(1024)), 64)
					case 4:
						b.StoreRange(id, uint64(rng.Intn(4096)), uint64(rng.Intn(1024)), 64)
					}
				}
			}
			b.Barrier()
		}
	}
}

// TestCompileMatchesBuilder checks Compile against the appending builder:
// the same emit yields the same streams and phase names, and every
// stream's capacity is exactly its length.
func TestCompileMatchesBuilder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		cores := 1 + int(seed%7)
		emit := randomEmit(seed, cores)
		b := NewBuilder(cores)
		emit(b)
		want, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Compile(cores, emit)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Phases, want.Phases) {
			t.Errorf("seed %d: phases %v, want %v", seed, got.Phases, want.Phases)
		}
		for id, s := range got.Streams {
			if len(s) != cap(s) {
				t.Errorf("seed %d core %d: len %d, cap %d", seed, id, len(s), cap(s))
			}
			if len(s) != len(want.Streams[id]) || (len(s) > 0 && !reflect.DeepEqual(s, want.Streams[id])) {
				t.Errorf("seed %d core %d: stream differs from the appending builder's", seed, id)
			}
		}
	}
}

// TestCompileRejectsDisagreeingPasses checks that an emit whose second
// pass differs from its first — more ops, fewer ops, ops moved to another
// core, a new phase name — yields an error and no program.
func TestCompileRejectsDisagreeingPasses(t *testing.T) {
	cases := map[string]func(pass int, b *Builder){
		"extra op": func(pass int, b *Builder) {
			b.Load(0, 0)
			if pass == 2 {
				b.Load(0, 64)
			}
		},
		"missing op": func(pass int, b *Builder) {
			b.LoadRange(1, 0, 256, 64)
			if pass == 1 {
				b.Compute(1, 3)
			}
		},
		"moved op": func(pass int, b *Builder) {
			b.Store(pass-1, 0)
		},
		"new phase": func(pass int, b *Builder) {
			b.Phase("init")
			if pass == 2 {
				b.Barrier()
				b.Phase("serial")
				b.Barrier()
			} else {
				b.Barrier()
				b.Compute(0, 1)
				b.Barrier()
			}
		},
	}
	for name, emit := range cases {
		pass := 0
		prog, err := Compile(2, func(b *Builder) {
			pass++
			emit(pass, b)
		})
		if err == nil || prog != nil {
			t.Errorf("%s: Compile returned (%v, %v), want an error and no program", name, prog, err)
		} else if !strings.Contains(err.Error(), "Compile") {
			t.Errorf("%s: error %q does not name Compile", name, err)
		}
	}
}

// TestCompileAllocs is the allocation gate of exact sizing: a compiled
// program costs one backing array per non-empty stream plus a constant
// (builder, program, stream table, counts, phase names), never a growth
// copy. ci.sh runs it without -race.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run the allocation budget without -race (ci.sh does)")
	}
	const cores = 64
	emit := func(b *Builder) {
		b.Phase("init")
		b.StoreRange(0, 0, 64<<10, 64)
		b.Barrier()
		for iter := 0; iter < 3; iter++ {
			b.Phase("parallel")
			for id := 0; id < cores; id++ {
				b.LoadRange(id, 1<<20+uint64(id)<<14, 16<<10, 64)
				b.Compute(id, 1000)
				b.Store(id, 1<<30+uint64(id)<<12)
			}
			b.Barrier()
			b.Phase("reduction")
			for id := 0; id < cores; id++ {
				b.Load(0, 1<<30+uint64(id)<<12)
			}
			b.Barrier()
			b.Phase("serial")
			b.Compute(0, 50)
			b.Barrier()
		}
	}
	const overhead = 8
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Compile(cores, emit); err != nil {
			t.Fatal(err)
		}
	})
	if budget := float64(cores + overhead); allocs > budget {
		t.Errorf("Compile allocates %.0f times for %d non-empty streams, budget is %.0f", allocs, cores, budget)
	}
}
