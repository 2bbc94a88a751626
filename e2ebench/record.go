package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// benchmarkFile is the benchmark's metric catalogue, at the repository
// root the benchmark runs from: every metric's name, unit, direction and
// bound. What each metric means on each workload, and what each per-layer
// metric should move, is in predictions.json beside this file.
const benchmarkFile = "BENCHMARK.json"

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalogue(path string) (catalogue, error) {
	var cat catalogue
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &cat)
	}
	if err == nil && (len(cat.EndToEnd) == 0 || len(cat.PerLayer) == 0) {
		err = errors.New("no end_to_end or per_layer metrics")
	}
	if err != nil {
		return cat, fmt.Errorf("%s: %w", path, err)
	}
	return cat, nil
}

// header records the protocol and the machine behind a result.
type header struct {
	Workload     string                    `json:"workload"`
	Seed         int64                     `json:"seed"`
	Seconds      int                       `json:"seconds"`
	Traced       bool                      `json:"traced"`
	Rate         float64                   `json:"rate_rps,omitempty"`
	LateP50MS    float64                   `json:"generator_late_p50_ms,omitempty"`
	LateP99MS    float64                   `json:"generator_late_p99_ms,omitempty"`
	Passes       int                       `json:"timed_passes"`
	SetupSamples int                       `json:"setup_samples"`
	Samples      map[string]latencySummary `json:"samples,omitempty"`
	Steal        float64                   `json:"steal_share"` // median over the timed passes
	CPU          string                    `json:"cpu"`
	NProc        int                       `json:"nproc"`
	GOMAXPROCS   int                       `json:"gomaxprocs"`
	GoVersion    string                    `json:"go"`
	Commit       string                    `json:"commit"`
	Sources      string                    `json:"sources_sha256"`
	Traces       []string                  `json:"traces,omitempty"`
}

func newHeader(c childConfig) header {
	h := header{Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Traced: c.traced,
		CPU: cpuModel(), NProc: c.nproc, GOMAXPROCS: c.nproc, GoVersion: runtime.Version(),
		Commit: "unknown", Sources: sourceDigest()}
	if c.workload == "serve_mixed" {
		h.Rate = serveRate
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest identifies the program measured when no commit is known:
// the SHA-256 over the paths and contents of go.mod and every file under
// cmd/ and internal/, in path order.
func sourceDigest() string {
	var paths []string
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
