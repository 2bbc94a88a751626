package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/experiments"
	"mergescale/internal/faults"
	"mergescale/internal/report"
	"mergescale/internal/serve"
)

// serveRate is the phase-1 open-loop rate in requests per second: about a
// fifth of the closed-loop capacity on the 2-CPU machine the benchmark was
// written on (~2400 req/s), where the load generator and the server share
// the CPUs. At half capacity the generator itself ran up to 6 ms late at
// p99 and queueing dominated the tail.
const serveRate = 500

// servePerClass is the number of phase-1 requests of each class in one
// pass; a run pools its passes, so from two passes on each class has the
// 1000 samples that leave ten beyond p99. servePhase2 is the closed-loop
// request count. Short passes buy more of them per run: on the machine the
// benchmark was written on the disk store's file creates swing a pass's
// capacity by a third, and the run reports the median pass.
const (
	servePerClass = 500
	servePhase2   = 3000
)

// servePass boots an in-process serve.Server (Quick, default limits) on a
// loopback listener, its store wired as the CLI wires it, and drives a
// seeded mix of /run and /sweep: phase 1 open loop at serveRate, phase 2
// closed loop with nproc clients. After the timed section every body is
// checked against an in-process rendering on a fresh memory-only engine.
func servePass(ctx context.Context, c childConfig, ready func()) (*passResult, error) {
	// One pool app per sweep; half of each phase is sweeps.
	gen := newGenerator(c.seed+int64(c.pass)<<32, servePerClass+servePhase2/2)

	// Set-up: store, warm-up through a separate engine, server boot.
	dir := filepath.Join(buildDir, "tmp", "serve", strconv.Itoa(os.Getpid()))
	if err := syncFS(buildDir); err != nil {
		return nil, err
	}
	defer removeSynced(dir)
	disk, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		return nil, err
	}
	breaker := faults.NewBreaker(disk, faults.BreakerOptions{})
	if err := warmStore(ctx, breaker, c.nproc, gen.pool); err != nil {
		return nil, err
	}
	// Commit the warm-up's thousands of creates now, not in the middle of
	// the timed section.
	if err := syncFS(dir); err != nil {
		return nil, err
	}
	var rec *recorder
	var root open
	var store engine.Store = breaker
	var timed *timedStore
	if c.traced {
		rec = newRecorder()
		timed = &timedStore{inner: breaker, rec: rec}
		store = timed
	}
	eng := engine.New(engine.Config{Workers: c.nproc, Store: store})
	srv := &serve.Server{Engine: eng, Store: disk, Breaker: breaker, Opt: experiments.Options{Quick: true}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Close()
		<-served
	}()
	base := "http://" + ln.Addr().String()
	tr := &http.Transport{MaxConnsPerHost: c.nproc, MaxIdleConnsPerHost: c.nproc, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	if err := healthy(ctx, client, base); err != nil {
		return nil, err
	}
	ready()

	// The request trace is fixed before the clock starts; each phase is
	// half /run and half /sweep, in seeded order.
	phase := func(n int) []request {
		rs := make([]request, 0, n)
		for i := 0; i < n/2; i++ {
			rs = append(rs, gen.run(), gen.sweep())
		}
		gen.rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		return rs
	}
	reqs := phase(2 * servePerClass)
	n1 := len(reqs)
	reqs = append(reqs, phase(servePhase2)...)
	outs := make([]outcome, len(reqs))

	u0 := snapshot()
	if c.traced {
		root = rec.begin("harness", "serve_mixed", 0, 0)
	}
	do := func(start time.Time, i int, due time.Duration) {
		name := "/run"
		if reqs[i].Sweep {
			name = "/sweep"
		}
		sp := rec.begin("http", name, root.id(), uint64(i+1))
		outs[i] = fetch(ctx, client, base, reqs[i], start)
		sp.end()
		outs[i].due = due
	}
	start1 := time.Now().Add(10 * time.Millisecond)
	late := openLoop(n1, serveRate, c.nproc, start1, func(i int) { do(start1, i, dueAt(i, serveRate)) })
	start2 := time.Now()
	closedLoop(len(reqs)-n1, c.nproc, func(j int) {
		i := n1 + j
		do(start2, i, time.Since(start2))
	})
	phase2Wall := time.Since(start2)
	u1 := snapshot()
	if c.traced {
		root.end()
	}

	// wall_s is the time the server sets, not the fixed schedule: phase
	// 1's backlog drain (from the last due time to the last response)
	// plus the closed-loop phase 2.
	var end1 time.Duration
	for _, o := range outs[:n1] {
		end1 = max(end1, o.end)
	}
	drain := max(0, end1-dueAt(n1-1, serveRate))
	res := &passResult{
		WallS:     (drain + phase2Wall).Seconds(),
		CPUS:      (u1.cpu - u0.cpu).Seconds(),
		PeakRSSMB: peakRSSMB(),
		Steal:     stealShare(u0, u1, c.nproc),
		Attempted: len(reqs),
		Late:      late,
		Capacity:  float64(len(reqs)-n1) / phase2Wall.Seconds(),
	}
	points, err := verifyBodies(ctx, c.nproc, reqs, outs)
	if err != nil {
		return nil, err
	}
	for i, o := range outs {
		if !o.ok {
			res.Failed++
			if res.GateErr == "" {
				res.GateErr = fmt.Sprintf("serve_mixed: request %d (%s) failed or mismatched its in-process rendering", i, reqs[i])
			}
		}
		if i >= n1 {
			continue
		}
		lat, first := ms(o.end-o.due), ms(o.firstRow-o.due)
		if !o.ok {
			lat, first = failedItem, failedItem
		}
		if reqs[i].Sweep {
			res.Sweep = append(res.Sweep, lat)
			res.FirstRow = append(res.FirstRow, first)
		} else {
			res.Run = append(res.Run, lat)
		}
	}
	if !c.traced {
		return res, nil
	}

	l := res.layers()
	engineLayers(l, eng.Stats()) // the server's engine serves only the timed section
	timed.layers(l)
	entries, size := disk.Size()
	l["diskcache.write_errs"] = float64(disk.Stats().WriteErrs)
	l["diskcache.entries"] = float64(entries)
	l["diskcache.bytes"] = float64(size)
	var runs, hits float64
	for i, o := range outs {
		if reqs[i].Sweep {
			l["serve.sweep_bytes"] += float64(o.bytes)
			continue
		}
		runs++
		if o.hit {
			hits++
		}
		l["serve.run_bytes"] += float64(o.bytes)
	}
	l["serve.render_hit_ratio"] = ratio(hits, runs)
	l["serve.sweep_points"] = float64(points)
	l["load.sent"] = float64(len(reqs))
	l["load.late_p99_ms"] = p99(append([]float64(nil), late...))
	runtimeLayers(l, u0, u1)
	res.finishTrace(c, rec)
	return res, nil
}

// warmStore fills the store the way earlier traffic would have: every
// registry artifact (Quick) and every pool app's sweep points, computed on
// an engine of their own so the server's engine starts cold.
func warmStore(ctx context.Context, store engine.Store, workers int, pool []experiments.SweepApp) error {
	eng := engine.New(engine.Config{Workers: workers, Store: store})
	for _, o := range experiments.RunAll(ctx, eng, experiments.Registry(), experiments.Options{Quick: true}) {
		if o.Err != nil {
			return fmt.Errorf("warm-up %s: %w", o.ID, o.Err)
		}
	}
	// Each plan stays under MaxSweepPoints.
	const appsPerPlan = 128
	for i := 0; i < len(pool); i += appsPerPlan {
		plan, err := planOf(sweepBody(pool[i:min(i+appsPerPlan, len(pool))]))
		if err != nil {
			return err
		}
		if _, err := plan.Run(ctx, experiments.Options{Engine: eng}); err != nil {
			return fmt.Errorf("warm-up sweep pool: %w", err)
		}
	}
	return nil
}

// removeSynced deletes the pass's store and waits until the file system
// has committed the deletion. Unlinking thousands of files leaves the
// disk busy for seconds after (journal commit, discards); without the
// wait that work lands in the next pass's timed section.
func removeSynced(dir string) {
	_ = os.RemoveAll(dir)
	_ = syncFS(filepath.Dir(dir))
}

// syncFS fsyncs the directory at path, which commits the file system's
// journal and with it every pending create and unlink.
func syncFS(path string) error {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

func planOf(body []byte) (*experiments.SweepPlan, error) {
	req, err := experiments.ParseSweepRequest(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return req.Normalize()
}

func healthy(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return errors.New("serve_mixed: server not healthy: " + resp.Status)
	}
	return nil
}

// verifyBodies is the serve_mixed correctness gate. It renders every
// request again in-process on a fresh memory-only engine —
// StreamElements for /run, SweepPlan.Run for /sweep — and clears ok on
// every response whose body hash differs. It returns the total number of
// sweep points.
func verifyBodies(ctx context.Context, workers int, reqs []request, outs []outcome) (int, error) {
	eng := engine.New(engine.Config{Workers: workers})
	runSums := map[[2]string][sha256.Size]byte{}
	points := 0
	for i, req := range reqs {
		var want [sha256.Size]byte
		if req.Sweep {
			plan, err := planOf(req.Body)
			if err != nil {
				return 0, err
			}
			points += plan.Points()
			want, err = renderSum(req.Format, func(emit func(report.Element) error) error {
				_, err := plan.Run(ctx, experiments.Options{Engine: eng, Emit: emit})
				return err
			})
			if err != nil {
				return 0, err
			}
		} else {
			key := [2]string{req.Target, req.Format}
			sum, ok := runSums[key]
			if !ok {
				e, err := experiments.ByID(req.Target)
				if err != nil {
					return 0, err
				}
				sum, err = renderSum(req.Format, func(emit func(report.Element) error) error {
					return experiments.StreamElements(ctx, eng, []experiments.Experiment{e}, experiments.Options{Quick: true}, emit)
				})
				if err != nil {
					return 0, err
				}
				runSums[key] = sum
			}
			want = sum
		}
		if outs[i].sum != want {
			outs[i].ok = false
		}
	}
	return points, nil
}

// renderSum renders produce's elements in format and hashes the bytes.
func renderSum(format string, produce func(emit func(report.Element) error) error) ([sha256.Size]byte, error) {
	var buf bytes.Buffer
	r, err := report.NewRenderer(format, &buf)
	if err == nil {
		err = r.Begin()
	}
	if err == nil {
		err = produce(r.Element)
	}
	if err == nil {
		err = r.End()
	}
	return sha256.Sum256(buf.Bytes()), err
}

// timedStore is the traced runs' engine.Store wrapper: it times every Get
// and Put on the store beneath and counts Get hits, passing values and
// outcomes through untouched. Its spans are roots: from outside the
// engine a store call cannot be tied to the request that caused it.
type timedStore struct {
	inner engine.Store
	rec   *recorder

	mu         sync.Mutex
	getUS      []float64
	putUS      []float64
	hits       int
	getN, putN int
}

func (t *timedStore) Get(key string) (any, bool) {
	sp := t.rec.begin("diskcache", "get", 0, 0)
	v, ok := t.inner.Get(key)
	d := sp.end()
	t.mu.Lock()
	t.getN++
	if ok {
		t.hits++
	}
	t.getUS = append(t.getUS, float64(d.Nanoseconds())/1e3)
	t.mu.Unlock()
	return v, ok
}

func (t *timedStore) Put(key string, val any) {
	sp := t.rec.begin("diskcache", "put", 0, 0)
	t.inner.Put(key, val)
	d := sp.end()
	t.mu.Lock()
	t.putN++
	t.putUS = append(t.putUS, float64(d.Nanoseconds())/1e3)
	t.mu.Unlock()
}

func (t *timedStore) layers(l map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	l["diskcache.get_n"] = float64(t.getN)
	l["diskcache.get_hit_ratio"] = ratio(float64(t.hits), float64(t.getN))
	l["diskcache.put_n"] = float64(t.putN)
	if len(t.getUS) > 0 {
		l["diskcache.get_p50_us"] = quantile(t.getUS, 0.5)
		l["diskcache.get_p99_us"] = p99(t.getUS)
	}
	if len(t.putUS) > 0 {
		l["diskcache.put_p50_us"] = quantile(t.putUS, 0.5)
		l["diskcache.put_p99_us"] = p99(t.putUS)
	}
}
