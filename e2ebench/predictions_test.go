package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestPredictionsCoverCatalogue checks predictions.json against
// BENCHMARK.json, the catalogue the harness reads: every end-to-end metric
// is defined on every workload, every per-layer metric names the
// end-to-end metrics and workloads it should move and is flat on exactly
// the others, and nothing is predicted for a metric the catalogue lacks.
func TestPredictionsCoverCatalogue(t *testing.T) {
	cat, err := loadCatalogue("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var pred struct {
		EndToEnd map[string]map[string]string `json:"end_to_end"`
		PerLayer map[string]struct {
			Moves map[string][]string `json:"moves"`
			Flat  []string            `json:"flat"`
			Note  string              `json:"note"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &pred); err != nil {
		t.Fatal(err)
	}

	var names []string
	for _, w := range cat.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no pass", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness runs %d", len(names), len(workloads))
	}

	e2e := map[string]bool{}
	for _, m := range cat.EndToEnd {
		e2e[m.Name] = true
		for _, w := range names {
			if pred.EndToEnd[m.Name][w] == "" {
				t.Errorf("end-to-end %s has no definition on %s", m.Name, w)
			}
		}
	}
	layer := map[string]bool{}
	for _, m := range cat.PerLayer {
		layer[m.Name] = true
		p, ok := pred.PerLayer[m.Name]
		if !ok || p.Note == "" {
			t.Errorf("per-layer %s has no prediction", m.Name)
			continue
		}
		var flat []string
		for _, w := range names {
			for _, moved := range p.Moves[w] {
				if !e2e[moved] {
					t.Errorf("%s predicts a move of unknown metric %q", m.Name, moved)
				}
			}
			if len(p.Moves[w]) == 0 {
				flat = append(flat, w)
			}
		}
		for w := range p.Moves {
			if !slices.Contains(names, w) {
				t.Errorf("%s predicts a move on unknown workload %q", m.Name, w)
			}
		}
		got := slices.Clone(p.Flat)
		slices.Sort(got)
		slices.Sort(flat)
		if !slices.Equal(got, flat) {
			t.Errorf("%s: flat on %v, want every workload it does not move: %v", m.Name, p.Flat, flat)
		}
	}
	for name := range pred.EndToEnd {
		if !e2e[name] {
			t.Errorf("predictions.json defines %s, which BENCHMARK.json lacks", name)
		}
	}
	for name := range pred.PerLayer {
		if !layer[name] {
			t.Errorf("predictions.json predicts %s, which BENCHMARK.json lacks", name)
		}
	}
}
