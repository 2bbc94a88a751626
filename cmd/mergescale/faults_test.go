package main

import (
	"bytes"
	"maps"
	"os"
	"strings"
	"testing"
)

// TestFaultsFlagValidation: malformed specs and specs without a disk
// store to inject into are usage errors (exit 2) before any work runs.
func TestFaultsFlagValidation(t *testing.T) {
	cases := []struct {
		args    []string
		wantSub string
	}{
		{[]string{"-faults", "get.bogus=1", "-quick", "run", "fig4"}, "unknown kind"},
		{[]string{"-faults", "get.err=1", "-quick", "run", "fig4"}, "requires -cachedir"},
		{[]string{"-faults", "get.err=1", "-nocache", "-cachedir", t.TempDir(), "-quick", "run", "fig4"}, "requires -cachedir"},
		{[]string{"-faults", "get.err=2", "-cachedir", t.TempDir(), "serve"}, "[0,1]"},
		{[]string{"-faults", "get.err=1", "serve"}, "requires -cachedir"},
		{[]string{"sweep", "-faults", "put.err=1"}, "flag provided but not defined: -faults"},
	}
	for _, c := range cases {
		var out, errOut bytes.Buffer
		if code := run(c.args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", c.args, code, errOut.String())
			continue
		}
		if !strings.Contains(errOut.String(), c.wantSub) {
			t.Errorf("%v: stderr %q missing %q", c.args, errOut.String(), c.wantSub)
		}
	}
}

// TestFaultsNeverAlterOutput: the tentpole byte-identity property at the
// CLI level — a run whose disk store fails on every operation renders
// exactly the bytes of a healthy run. Faults degrade reuse, never
// correctness.
func TestFaultsNeverAlterOutput(t *testing.T) {
	var healthy, healthyErr bytes.Buffer
	if code := run([]string{"-quick", "-cachedir", t.TempDir(), "run", "fig4"}, &healthy, &healthyErr); code != 0 {
		t.Fatalf("healthy run exit %d: %s", code, healthyErr.String())
	}

	for _, spec := range []string{
		"get.err=1,put.err=1",
		"put.enospc=1",
		"get.corrupt=1,put.corrupt=1",
	} {
		var out, errOut bytes.Buffer
		args := []string{"-quick", "-cachedir", t.TempDir(), "-faults", spec, "-stats", "run", "fig4"}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("faulted run (%s) exit %d: %s", spec, code, errOut.String())
		}
		if !bytes.Equal(out.Bytes(), healthy.Bytes()) {
			t.Errorf("spec %q changed rendered bytes:\n%s\nvs healthy:\n%s", spec, out.String(), healthy.String())
		}
		if !strings.Contains(errOut.String(), "faults:") {
			t.Errorf("spec %q: -stats missing faults line:\n%s", spec, errOut.String())
		}
	}
}

// TestFaultsCorruptedCacheSelfHealsAcrossRuns: a process that corrupts
// every entry it writes must not poison the next one. The corruption
// flips single bits (which can land inside a string or float and still
// decode) or truncates; either way the replay must read each damaged
// entry as a dropped miss and render exactly the bytes of the first run.
func TestFaultsCorruptedCacheSelfHealsAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	var first, firstErr bytes.Buffer
	if code := run([]string{"-quick", "-cachedir", dir, "-faults", "put.corrupt=1", "run", "all"}, &first, &firstErr); code != 0 {
		t.Fatalf("corrupting run exit %d: %s", code, firstErr.String())
	}
	// Second process, no injection: corrupted entries read as dropped
	// misses and the output is still byte-identical.
	var second, secondErr bytes.Buffer
	if code := run([]string{"-quick", "-cachedir", dir, "run", "all"}, &second, &secondErr); code != 0 {
		t.Fatalf("clean run over corrupted cache exit %d: %s", code, secondErr.String())
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("corrupted cache changed the next run's bytes")
	}
}

// faultedRun runs `run all` in quick mode over a fresh cache directory
// with the given worker count and fault spec, and returns the rendered
// bytes, the -stats "faults:" line and the cache directory.
func faultedRun(t *testing.T, workers, spec string) (out []byte, faultsLine, dir string) {
	t.Helper()
	dir = t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-quick", "-workers", workers, "-cachedir", dir, "-faults", spec, "-stats", "run", "all"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run exit %d: %s", code, stderr.String())
	}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.Contains(line, "faults:") {
			return stdout.Bytes(), line, dir
		}
	}
	t.Fatalf("no faults line in stats:\n%s", stderr.String())
	return nil, "", ""
}

// TestFaultsStatsLineDeterministic: at -workers 1 the store sees one
// arrival order, so the same seed and spec replay the whole -stats
// faults line, the breaker's trip point included.
func TestFaultsStatsLineDeterministic(t *testing.T) {
	const spec = "seed=7,get.err=0.5,put.enospc=0.5"
	_, a, _ := faultedRun(t, "1", spec)
	_, b, _ := faultedRun(t, "1", spec)
	if a != b {
		t.Errorf("same seed+spec, different injection stats:\n%s\n%s", a, b)
	}
	if !strings.Contains(a, "breaker") {
		t.Errorf("faults stats line missing breaker state: %s", a)
	}
}

// TestFaultsKeyDecisionsReplayAtAnyWorkers: at -workers 8 the arrival
// order changes from run to run, yet every key's fault decisions replay.
// put.corrupt damages an entry by a single bit flip or by truncation,
// chosen from the key's decision bits, and never trips the breaker. So
// two runs must render the same bytes, inject the same number of faults,
// and leave the same entry files, each truncated to the same length.
func TestFaultsKeyDecisionsReplayAtAnyWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick runs")
	}
	const spec = "seed=7,put.corrupt=0.5"
	outA, lineA, dirA := faultedRun(t, "8", spec)
	outB, lineB, dirB := faultedRun(t, "8", spec)
	if !bytes.Equal(outA, outB) {
		t.Error("same seed+spec at -workers 8 rendered different bytes")
	}
	if lineA != lineB {
		t.Errorf("same seed+spec at -workers 8, different injection stats:\n%s\n%s", lineA, lineB)
	}
	sizes := func(dir string) map[string]int64 {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := map[string]int64{}
		for _, e := range entries {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			m[e.Name()] = fi.Size()
		}
		return m
	}
	a, b := sizes(dirA), sizes(dirB)
	if len(a) == 0 {
		t.Fatal("no cache entries written")
	}
	if !maps.Equal(a, b) {
		t.Errorf("entry files differ between runs:\n%v\n%v", a, b)
	}
}
