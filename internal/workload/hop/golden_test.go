package hop

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"mergescale/internal/trace"
	"mergescale/internal/workload/datagen"
)

// goldenThreads are the thread counts every golden case runs at.
var goldenThreads = []int{1, 2, 4, 8}

// latticeData places n points on a small integer lattice in d dimensions
// with many exact duplicates, so equal densities (and therefore the
// `order[c] > best` tie-break of the hop pass) occur on purpose.
func latticeData(n, d int) *datagen.Dataset {
	ds := &datagen.Dataset{
		Spec:   datagen.Spec{Label: "lattice", N: n, D: d, C: 1},
		Points: make([]float64, n*d),
		Truth:  make([]int, n),
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			ds.Points[i*d+j] = float64((i*(7+j) + j*13) % 11)
		}
	}
	return ds
}

// hopDigest is the SHA-256 (hex) of Group, Groups and the per-section
// work of one Run at every golden thread count. Work is printed as exact
// float bits, so a change in summation order fails as surely as a change
// in the grouping.
func hopDigest(t *testing.T, ds *datagen.Dataset, cfg Config) string {
	t.Helper()
	h := sha256.New()
	for _, th := range goldenThreads {
		res, prof, err := Run(ds, cfg, th, false)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "threads=%d groups=%d group=%v\n", th, res.Groups, res.Group)
		for _, s := range trace.Sections() {
			fmt.Fprintf(h, "%s=%x\n", s, math.Float64bits(prof.SectionWork(s)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRunGolden pins hop's exact output: for each data set and candidate
// cap, the digest of groups and section work across 1/2/4/8 threads must
// match the recorded constant. MaxNeighbors 200 gives windows wider than
// 64 candidates. Re-capture a constant only for a change that means to
// alter hop's results or its operation counts.
func TestRunGolden(t *testing.T) {
	gen := func(spec datagen.Spec) *datagen.Dataset {
		ds, err := datagen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	sets := []struct {
		name string
		ds   *datagen.Dataset
	}{
		{"small-3d", gen(datagen.Spec{Label: "small", N: 2000, D: 3, C: 8, Seed: 31})},
		{"2d", gen(datagen.Spec{Label: "2d", N: 3000, D: 2, C: 6, Seed: 7})},
		{"4d", gen(datagen.Spec{Label: "4d", N: 1500, D: 4, C: 5, Seed: 11})},
		{"hop-default-quarter", gen(datagen.Spec{Label: "hdq", N: datagen.HopDefault.N / 4, D: 3, C: 64, Seed: 301})},
		{"lattice-2d", latticeData(1200, 2)},
	}
	golden := map[string]string{
		"small-3d/8":              "9ddf1c88eb135c741761b2ab46a7e4691a863b69050cb577f124bd60d17230a0",
		"small-3d/64":             "5af6d921b45a512dd86ea9bffd24742589df1b7109eefa1f720f5b27ee35135a",
		"small-3d/200":            "ad7f2c1382fda29cd852fa0ca91242cebc39155acb0574095d3a4367bad75681",
		"2d/8":                    "ce81a3ca634767b236ca0769aeb46142b85de0965c0d8bb6b86d307d0672c767",
		"2d/64":                   "0ec94a21874025ed60c8063b24080131a2947032930cc42b468e0643253a1d66",
		"2d/200":                  "a3764973677fa8118d64ae80b43eae87fe0f3289dc2509a90b6c1c77b259551e",
		"4d/8":                    "3df0d0a6c54ac0cd4db03ac42906b7a1507825b9cc0ea2cf98eea3cfe7424ec5",
		"4d/64":                   "0a4d6c346adb5747f1de15953ec92705c4b786be6a3e50c3466ee208e0dc749e",
		"4d/200":                  "fbf4e76bb47be2af5abda8a793f3ae003caf22676f9d5eda9810a16e274742e3",
		"hop-default-quarter/8":   "f5097fe1334b2a3b4b0916fcebd0a0255d1c928c40abcd3aa2d4de1e4211e5d6",
		"hop-default-quarter/64":  "93f5a2f0ebb56a90da3cb86864da86878f325468f7f842eb6ff0b8616bb4043b",
		"hop-default-quarter/200": "50e7637196881eb53ba8f966c3d13fcfc57c81cc0aca823792efe77bfeb07a2e",
		"lattice-2d/8":            "08802bde03ff4e5986df787527f2164f311f7882cfd7158c66a9f4d280577231",
		"lattice-2d/64":           "610972a17b10fd6036e21f2f683b5fd0657bd47c8024f85e30d6116629c79206",
		"lattice-2d/200":          "327a4160125572973851f8bcfc77b756d687ea4d5a8dfd957bd2e5092e8ea79e",
	}
	for _, set := range sets {
		for _, nbr := range []int{8, 64, 200} {
			name := fmt.Sprintf("%s/%d", set.name, nbr)
			got := hopDigest(t, set.ds, Config{MaxNeighbors: nbr})
			if want := golden[name]; got != want {
				t.Errorf("%s: digest %s, want %s", name, got, want)
			}
		}
	}
}

// TestWarmRunAllocatesNoScratch: a second Run of the same shape takes
// its working arrays from the scratch pool, so it allocates only the
// profile, the result and a few closures — a fixed count, and no more
// bytes than the returned Group slice plus a small constant. GC is off
// and the test runs on one P for the measurement: a collection may empty
// the pool, and a Get on another P does not see an item Put on this one.
func TestWarmRunAllocatesNoScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops items under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds := smallData(t)
	for _, th := range []int{1, 4} {
		for _, nbr := range []int{64, 200} {
			cfg := Config{MaxNeighbors: nbr}
			if _, _, err := Run(ds, cfg, th, false); err != nil {
				t.Fatal(err)
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, func() { Run(ds, cfg, th, false) })
			runtime.ReadMemStats(&after)
			if allocs > 10 {
				t.Errorf("threads=%d nbr=%d: warm Run made %v allocations, want <= 10", th, nbr, allocs)
			}
			perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
			if limit := uint64(8*ds.N() + 4096); perRun > limit {
				t.Errorf("threads=%d nbr=%d: warm Run allocated %d bytes, want <= %d (scratch reallocated?)", th, nbr, perRun, limit)
			}
		}
	}
}
