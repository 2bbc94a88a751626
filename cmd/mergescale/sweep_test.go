package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testSweepGrid = `{"apps":[{"f":0.975,"fcon":0.1,"fored":0.2},{"f":0.9}],"budgets":[64,256],"rs":[1,2,4,8,16]}`

// writeGrid writes a grid JSON to a temp file and returns its path.
func writeGrid(t *testing.T, grid string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(grid), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSweepRendersGrid: the subcommand renders a grid file to stdout with
// one table per (app, budget) group and deterministic bytes across runs.
func TestSweepRendersGrid(t *testing.T) {
	grid := writeGrid(t, testSweepGrid)
	var first, second, errOut bytes.Buffer
	if code := run([]string{"sweep", "-grid", grid}, &first, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if code := run([]string{"sweep", "-grid", grid}, &second, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if first.Len() == 0 {
		t.Fatal("sweep rendered nothing")
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("sweep output differs across runs")
	}
	for _, want := range []string{"Design-space sweep", "N=64", "N=256", "peak"} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("output lacks %q", want)
		}
	}
}

// TestSweepBadGridFails: a malformed grid is a usage error (exit 2) with
// a one-line reason, and -out is never touched. The retired "pin" field is
// an unknown field, named in the reason exactly as POST /sweep's 400
// names it.
func TestSweepBadGridFails(t *testing.T) {
	for _, tc := range []struct{ grid, want string }{
		{`{"apps":[],"budgets":[64]}`, "at least one app"},
		{`{"apps":[{"f":0.9}],"budgets":[64],"rs":[1,2,4],"pin":true}`, `unknown field "pin"`},
	} {
		grid := writeGrid(t, tc.grid)
		out := filepath.Join(t.TempDir(), "report.txt")
		if err := os.WriteFile(out, []byte("precious"), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, errOut bytes.Buffer
		if code := run([]string{"sweep", "-grid", grid, "-out", out}, &stdout, &errOut); code != 2 {
			t.Fatalf("%s: exit %d, want 2 (stderr %q)", tc.grid, code, errOut.String())
		}
		if data, err := os.ReadFile(out); err != nil || string(data) != "precious" {
			t.Fatalf("%s: bad grid clobbered -out file: %q, %v", tc.grid, data, err)
		}
		msg := strings.TrimRight(errOut.String(), "\n")
		if strings.Contains(msg, "\n") || !strings.Contains(msg, tc.want) {
			t.Fatalf("%s: stderr %q, want one line mentioning %q", tc.grid, errOut.String(), tc.want)
		}
	}
}

// TestSweepTimingGoesToStderr: -timing reports first-row and total wall
// time on stderr only, leaving stdout bytes untouched.
func TestSweepTimingGoesToStderr(t *testing.T) {
	grid := writeGrid(t, testSweepGrid)
	var plain, timed, errOut bytes.Buffer
	if code := run([]string{"sweep", "-grid", grid}, &plain, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"sweep", "-grid", grid, "-timing"}, &timed, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !bytes.Equal(plain.Bytes(), timed.Bytes()) {
		t.Fatal("-timing changed stdout bytes")
	}
	msg := errOut.String()
	for _, want := range []string{"points=20", "rows=20", "first-row=", "total="} {
		if !strings.Contains(msg, want) {
			t.Errorf("timing line %q lacks %q", msg, want)
		}
	}
}

// TestSweepRejectsGlobalFlags: like load, sweep owns its flag surface —
// a global flag before the subcommand is refused, not silently ignored.
func TestSweepRejectsGlobalFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-quick", "sweep"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "does not apply to sweep") {
		t.Fatalf("unexpected stderr: %s", errOut.String())
	}
}

// TestSweepRetiredFlagsUnknown: sweep points are evaluated off the engine
// and the disk cache, so the engine, cache, pin and fault flags are gone
// from the subcommand — and -pinfile from the global set. Each is an
// unknown-flag usage error, not a silently ignored setting.
func TestSweepRetiredFlagsUnknown(t *testing.T) {
	grid := writeGrid(t, testSweepGrid)
	for _, args := range [][]string{
		{"sweep", "-grid", grid, "-workers", "2"},
		{"sweep", "-grid", grid, "-cachedir", t.TempDir()},
		{"sweep", "-grid", grid, "-cachettl", "1h"},
		{"sweep", "-grid", grid, "-nocache"},
		{"sweep", "-grid", grid, "-pinfile", "p"},
		{"sweep", "-grid", grid, "-faults", "put.err=1"},
		{"sweep", "-grid", grid, "-stats"},
		{"-pinfile", "p", "run", "fig4"},
		{"-cachedir", t.TempDir(), "serve", "-pincap", "8"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
			continue
		}
		if !strings.Contains(errOut.String(), "flag provided but not defined") {
			t.Errorf("%v: stderr %q, want an unknown-flag error", args, errOut.String())
		}
	}
}
