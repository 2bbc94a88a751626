// Command e2ebench is mergescale's end-to-end benchmark. It drives the
// program in-process through its packages on three workloads, checks each
// workload's output bytes, and prints every end-to-end metric (or, with
// --trace 1, every per-layer metric) as the last line of its output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every measured pass runs in a fresh child process (this binary re-run
// with -child), so the program's package-level memo tables start empty as
// they do for a command-line user. Run it from the repository root:
//
//	bash e2ebench/run.sh --workload regen_cold --seed 1 --seconds 20 --trace 0
//
// Results, with the machine and protocol record, are also written under
// .bench_build/results; traced passes write Chrome trace-event JSON under
// .bench_build/traces.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const buildDir = ".bench_build"

// runDeadline bounds one invocation, children included.
const runDeadline = 170 * time.Second

// childConfig is what one pass needs to know.
type childConfig struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	nproc    int
	pass     int
}

// passResult is what a child reports for one pass. Latencies are in ms.
type passResult struct {
	SetupS    float64 `json:"setup_s"` // filled in by the parent
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Steal     float64 `json:"steal_share"` // of the timed section's CPU time
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	GateErr   string  `json:"gate_err,omitempty"`
	// Run, Sweep and FirstRow are serve_mixed's phase-1 request latencies,
	// which the result header summarizes; a failed request is failedItem.
	Run      []float64          `json:"run_ms"`
	Sweep    []float64          `json:"sweep_ms"`
	FirstRow []float64          `json:"first_row_ms"`
	Late     []float64          `json:"late_ms,omitempty"`
	Capacity float64            `json:"capacity_rps"`
	Layers   map[string]float64 `json:"layers,omitempty"`
	Trace    string             `json:"trace,omitempty"`
	Traced   bool               `json:"traced"`
}

// layers returns the pass's per-layer map, creating it on first use.
func (r *passResult) layers() map[string]float64 {
	if r.Layers == nil {
		r.Layers = map[string]float64{}
	}
	return r.Layers
}

// finishTrace adds the span-derived layer metrics and writes the spans.
func (r *passResult) finishTrace(c childConfig, rec *recorder) {
	spans := rec.snapshot()
	l := r.layers()
	for layer, s := range selfTimes(spans) {
		l["self."+layer+"_s"] = s
	}
	dir := filepath.Join(buildDir, "traces")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-pass%d.json", c.workload, c.seed, c.pass))
	if err := os.MkdirAll(dir, 0o755); err == nil {
		if err := writeChromeTrace(path, spans); err == nil {
			r.Trace = path
		}
	}
}

type passFunc func(ctx context.Context, c childConfig, ready func()) (*passResult, error)

// workloads maps each workload to its pass.
var workloads = map[string]passFunc{
	"regen_cold":   regenPass,
	"sim_manycore": simPass,
	"serve_mixed":  servePass,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: regen_cold | sim_manycore | serve_mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 35, "how long one run measures")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced passes")
	child := fs.Bool("child", false, "run one pass in this process (internal)")
	pass := fs.Int("pass", 0, "with -child: pass number (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pf, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: need --workload regen_cold|sim_manycore|serve_mixed, --seconds >= 1 and --trace 0|1")
		return 2
	}
	nproc := runtime.NumCPU()
	c := childConfig{workload: *wl, seed: *seed, seconds: *seconds, traced: *trace == 1,
		nproc: nproc, pass: *pass}
	if *child {
		return childMain(pf, c, stdout, stderr)
	}
	return parentMain(c, stdout, stderr)
}

// childMain runs one pass and reports it: "ready" once set-up is done,
// then one JSON line.
func childMain(pf passFunc, c childConfig, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(c.nproc)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	out := bufio.NewWriter(stdout)
	ready := func() {
		fmt.Fprintln(out, "ready")
		out.Flush()
	}
	res, err := pf(ctx, c, ready)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s pass %d: %v\n", c.workload, c.pass, err)
		return 1
	}
	res.Traced = c.traced
	if err := json.NewEncoder(out).Encode(res); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	if err := out.Flush(); err != nil {
		return 1
	}
	return 0
}

// spawn runs one pass in a fresh child process. The set-up time is taken
// from the parent's side: from starting the child until it reports ready.
func spawn(ctx context.Context, c childConfig, stderr io.Writer) (*passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", c.workload, "-seed", strconv.FormatInt(c.seed, 10),
		"-trace", boolArg(c.traced),
		"-pass", strconv.Itoa(c.pass)}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = stderr
	// A child outlives no parent, however the parent ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 256<<20)
	var setup time.Duration
	var res *passResult
	var perr error
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case string(line) == "ready":
			setup = time.Since(start)
		case res == nil && perr == nil:
			res = &passResult{}
			perr = json.Unmarshal(line, res)
		}
	}
	if err := sc.Err(); err != nil && perr == nil {
		perr = err
	}
	_, _ = io.Copy(io.Discard, pipe)
	werr := cmd.Wait()
	switch {
	case werr != nil:
		return nil, fmt.Errorf("%s pass %d: %w", c.workload, c.pass, werr)
	case perr != nil:
		return nil, fmt.Errorf("%s pass %d: %w", c.workload, c.pass, perr)
	case setup == 0:
		return nil, fmt.Errorf("%s pass %d: child never reported ready", c.workload, c.pass)
	case res == nil:
		return nil, fmt.Errorf("%s pass %d: child reported no result", c.workload, c.pass)
	}
	res.SetupS = setup.Seconds()
	return res, nil
}

func boolArg(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// schedule runs the passes of one invocation, each in a fresh process,
// until the next one would overrun --seconds. Untraced runs measure only
// untraced passes; traced runs alternate untraced and traced passes so the
// tracing overhead is a difference of medians taken side by side.
func schedule(ctx context.Context, c childConfig, stderr io.Writer) ([]*passResult, error) {
	var out []*passResult
	begin := time.Now()
	budget := time.Duration(c.seconds) * time.Second
	for i := 0; ; i++ {
		passStart := time.Now()
		pc := c
		pc.traced, pc.pass = c.traced && i%2 == 1, i
		r, err := spawn(ctx, pc, stderr)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		last := time.Since(passStart)
		enough := !c.traced || i >= 1
		if enough && time.Since(begin)+last > budget {
			return out, nil
		}
	}
}

// result is the final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func parentMain(c childConfig, stdout, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	defer os.RemoveAll(filepath.Join(buildDir, "tmp", "serve"))
	cat, err := loadCatalogue(benchmarkFile)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	passes, err := schedule(ctx, c, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	res, rec := aggregate(c, cat, passes)
	if err := writeRecord(c, rec); err != nil {
		fmt.Fprintf(stderr, "e2ebench: writing result record: %v\n", err)
	}
	hdr, _ := json.Marshal(rec.Header)
	fmt.Fprintf(stdout, "# %s\n", hdr)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "# %-34s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(stdout, "# fail_share %d/%d\n", res.Failed, res.Attempted)
	for _, e := range rec.GateErrors {
		fmt.Fprintf(stdout, "# GATE FAILED: %s\n", e)
	}
	if rec.Invalid != "" {
		// No result line: the numbers above do not measure the program.
		fmt.Fprintf(stdout, "# INVALID: %s\n", rec.Invalid)
		fmt.Fprintf(stderr, "e2ebench: invalid run: %s\n", rec.Invalid)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// record is the full result of one invocation, kept beside the printed
// line so the samples behind every number can be audited.
type record struct {
	Header     header        `json:"header"`
	Result     result        `json:"result"`
	GateErrors []string      `json:"gate_errors,omitempty"`
	Invalid    string        `json:"invalid,omitempty"`
	Passes     []*passResult `json:"passes"`
}

func writeRecord(c childConfig, rec record) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%s.json", c.workload, c.seed, boolArg(c.traced))
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// aggregate turns the passes into the printed metrics: medians of
// per-pass values, percentiles over the pooled request latencies. A
// serve_mixed run whose load generator could not hold its open-loop
// schedule is marked invalid.
func aggregate(c childConfig, cat catalogue, passes []*passResult) (result, record) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	rec := record{Header: newHeader(c), Passes: passes}
	var setup, wall, cpu, rss, capacity, steal []float64
	var run, sweep, first, late []float64
	var twall, tcpu []float64
	tl := map[string][]float64{}
	for _, p := range passes {
		setup = append(setup, p.SetupS)
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		if p.GateErr != "" {
			rec.GateErrors = append(rec.GateErrors, p.GateErr)
		}
		if p.Traced {
			twall, tcpu = append(twall, p.WallS), append(tcpu, p.CPUS)
			for k, v := range p.Layers {
				tl[k] = append(tl[k], v)
			}
			if p.Trace != "" {
				rec.Header.Traces = append(rec.Header.Traces, p.Trace)
			}
			continue
		}
		wall, cpu, rss = append(wall, p.WallS), append(cpu, p.CPUS), append(rss, p.PeakRSSMB)
		steal = append(steal, p.Steal)
		capacity = append(capacity, p.Capacity)
		run, sweep, first = pool(run, p.Run), pool(sweep, p.Sweep), pool(first, p.FirstRow)
		late = append(late, p.Late...)
	}
	res.Correct = res.Failed == 0 && len(rec.GateErrors) == 0

	if len(run) > 0 {
		rs := summarize(run)
		rec.Header.Samples = map[string]latencySummary{"run": rs, "sweep": summarize(sweep), "sweep_first_row": summarize(first)}
		rec.Header.LateP50MS = quantile(late, 0.5)
		rec.Header.LateP99MS = p99(late)
		if rec.Header.LateP50MS >= rs.P50/2 {
			rec.Invalid = fmt.Sprintf("generator lateness p50 %.3g ms rivals the /run p50 %.3g ms: the open loop did not hold its schedule", rec.Header.LateP50MS, rs.P50)
		}
	}
	rec.Header.Passes = len(wall)
	rec.Header.Steal = median(steal)
	rec.Header.SetupSamples = len(setup)
	if !c.traced {
		e2e := map[string]float64{
			"setup_s":      median(setup),
			"wall_s":       median(wall),
			"cpu_s":        median(cpu),
			"peak_rss_mb":  median(rss),
			"capacity_rps": median(capacity),
		}
		for _, m := range cat.EndToEnd {
			res.Metrics[m.Name] = metric{Value: finite(e2e[m.Name]), Unit: m.Unit}
		}
	} else {
		for _, m := range cat.PerLayer {
			res.Metrics[m.Name] = metric{Value: finite(median(tl[m.Name])), Unit: m.Unit}
		}
		res.Metrics["trace.overhead_wall_s"] = metric{Value: finite(median(twall) - median(wall)), Unit: "s"}
		res.Metrics["trace.overhead_cpu_s"] = metric{Value: finite(median(tcpu) - median(cpu)), Unit: "s"}
	}
	rec.Result = res
	return res, rec
}

// failedItem marks a failed item's latency in a passResult. Pooled, it
// becomes +Inf: a failed request misses every latency limit.
const failedItem = -1

func pool(dst, xs []float64) []float64 {
	for _, x := range xs {
		if x == failedItem {
			x = math.Inf(1)
		}
		dst = append(dst, x)
	}
	return dst
}

// finite maps values JSON cannot carry: no samples (NaN) reads as 0, and a
// percentile that landed on a failed request (+Inf) as -1 — the run is
// already marked incorrect.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 0):
		return -1
	}
	return v
}
