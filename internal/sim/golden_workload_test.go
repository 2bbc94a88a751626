package sim_test

import (
	"testing"

	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/datagen"
	"mergescale/internal/workload/hop"
)

// TestRunSerialGoldenWorkloads extends the random-program golden to every
// real program source the repo simulates: the registry workloads (kmeans,
// fuzzy c-means, hop accumulation) and both modes of the contended zipf
// family, at 4 and 16 cores on a 1024-point set at scale 8, and at 64 and
// 256 cores (multi-word sharer sets, the 256-core directory and victim
// paths) on a 2048-point set at scale 2, which keeps hop's n >= 4·cores.
// Each case runs twice on one machine with a Reset between, and both runs
// must hit the recorded digest.
func TestRunSerialGoldenWorkloads(t *testing.T) {
	ds, err := datagen.Generate(datagen.Spec{Label: "par", N: 1024, D: 4, C: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	many, err := datagen.Generate(datagen.Spec{Label: "many", N: 2048, D: 4, C: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	splitContend := contend.New()
	splitContend.Cfg.Mode = contend.Split
	workloads := map[string]workload.Workload{
		"kmeans":         newQuickKMeans(),
		"fuzzy":          newQuickFuzzy(),
		"hop":            hop.New(),
		"contend-joined": contend.New(),
		"contend-split":  splitContend,
	}
	golden := []struct {
		name   string
		cores  int
		digest string
	}{
		{"kmeans", 4, "ea042daa0365b4f838f12f170b64b6dfcc6f68c4e584422061e0b37cbee441c1"},
		{"kmeans", 16, "9d56962ff47212f0db39379d6f8dfc7b3cb8eee08726f340ddbef25285d35c36"},
		{"fuzzy", 4, "062f6479d312d3494174dad52cd4b8034b805d8c70f8287f7c4a83dbc5a0d6e2"},
		{"fuzzy", 16, "68f63d614c0d8bb4fd5f8dd66f32b6051203bec0cbcbb6c51a17f24236673546"},
		{"hop", 4, "79cac2d6a1197d99417ae9b522e8c8f2d171e275cd589ea8d50e4c34358784dd"},
		{"hop", 16, "70911595e958ac85829c82e22d2ca0f508d359acd3bb94a8395325a0471463a9"},
		{"contend-joined", 4, "e9e7c63425dd1f9142fee45b6d30ef9cb1d67da563ea82441c220867d6145d1f"},
		{"contend-joined", 16, "59db6e34929659d66e5208dbc00566b8feca7161f0088c698bc5b10cbb982e19"},
		{"contend-split", 4, "c10d45874b76beea417c5592c40b55853cdc37011a49081cdcb0aca90a2cf426"},
		{"contend-split", 16, "b8dda2af24b69999d17b94fc79d5fa55c383853fcf4231b02680d8328c7f73f5"},
		{"kmeans", 64, "bbd941962d0f7c0dc2a82024fce4fcc492bc642bae5e34912a7e781cf3d46029"},
		{"kmeans", 256, "aeccd75cff523e65f21be372453a389809c68c0187abf2e206040fd2e74f1db4"},
		{"fuzzy", 64, "0f57e62eff014d6a99b8c79cd1edc3296b6b241087f40e626a1cfa8fabd95c71"},
		{"fuzzy", 256, "4a68bf347363a05a9046c78d76beb447a65432303895605f70d8bbb08a9b7768"},
		{"hop", 64, "93992e9db4edbe59a21761609c4bdc28170fc023e0c07f1e80c990eccc6ff919"},
		{"hop", 256, "6bff5db5d50a7bb47f354101c6a24bc2d04b25291ba633f3746a5955946aed99"},
		{"contend-joined", 64, "c1ef67007c3abd0fdbfd58de4f0616fbafed7f6a4868321e8d26990457d9df5e"},
		{"contend-joined", 256, "b7dcf2a4403c14cabc6db337de441af720c5361210b60e98d2fb8b55683f1a98"},
		{"contend-split", 64, "0e8d1a85c38fb1f0ced1e6b2f54a99a52fba887aa27e01c0f424d1d270edff47"},
		{"contend-split", 256, "5eb8b601e9b27afe32185ba7e9860076e58e07c5ddf9e1bb43eead3a5ecae00d"},
	}
	for _, g := range golden {
		cfg := sim.DefaultConfig(g.cores)
		data, scale := ds, 8
		if g.cores >= 64 {
			data, scale = many, 2
		}
		prog, err := workloads[g.name].BuildProgram(data, cfg, scale)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ {
			if rep > 0 {
				m.Reset()
			}
			res, err := m.Run(prog)
			if err != nil {
				t.Fatalf("%s cores %d rep %d: %v", g.name, g.cores, rep, err)
			}
			if got := sim.ResultDigest(res); got != g.digest {
				t.Errorf("%s cores %d rep %d: digest %s, want %s", g.name, g.cores, rep, got, g.digest)
			}
		}
	}
}
