package main

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/experiments"
	"mergescale/internal/report"
	"mergescale/internal/sim"
)

// regenRef is the SHA-256 of the full-size text rendering of every
// registry artifact, as `mergescale run all` prints it.
const regenRef = "d7a955308f7b1f8c16fc6117316a4015ee7521a10a4a0d89e919a9f0a01c9996"

// regenHeavy are the experiments timed one by one; the rest are the
// analytic artifacts, reported as one sum.
var regenHeavy = []string{"table4", "fig2c", "fig2a", "fig2b", "fig2d", "table2", "ext-contend", "ext-contend-split"}

// regenPass regenerates all registry artifacts at full size, cold, through
// StreamElements on an nproc-worker engine with no store, into a text
// renderer.
func regenPass(ctx context.Context, c childConfig, ready func()) (*passResult, error) {
	eng := engine.New(engine.Config{Workers: c.nproc})
	targets := experiments.Registry()
	index := map[string]int{}
	for i, e := range targets {
		index[e.ID] = i
	}
	n := len(targets)

	var rec *recorder
	var root open
	execSpan := make([]atomic.Uint64, n)
	execDur := make([]time.Duration, n)
	execEnd := make([]time.Duration, n)
	if c.traced {
		rec = newRecorder()
		for i := range targets {
			i, run := i, targets[i].Run
			// Same ID, so the cache key is unchanged; only the call is timed.
			targets[i].Run = func(ctx context.Context, opt experiments.Options) (*report.Document, error) {
				sp := rec.begin("experiments", targets[i].ID, root.id(), uint64(i+1))
				execSpan[i].Store(sp.id())
				doc, err := run(ctx, opt)
				execDur[i] = sp.end()
				execEnd[i] = time.Since(rec.origin)
				return doc, err
			}
		}
	}

	var out bytes.Buffer
	rend, err := report.NewRenderer("text", &out)
	if err != nil {
		return nil, err
	}
	release := make([]float64, n) // s from the pass start, for release_wait_s
	var renderTime time.Duration
	cur := 0

	ready()
	u0, runs0 := snapshot(), sim.Runs()
	if c.traced {
		root = rec.begin("harness", "regen_cold", 0, 0)
	}
	start := time.Now()
	emit := func(el report.Element) error {
		if el.Kind == report.ElemBeginDoc {
			cur = index[el.ID]
		}
		var err error
		if c.traced {
			sp := rec.begin("report", "render", execSpan[cur].Load(), uint64(cur+1))
			err = rend.Element(el)
			renderTime += sp.end()
		} else {
			err = rend.Element(el)
		}
		if el.Kind == report.ElemEndDoc {
			release[cur] = time.Since(start).Seconds()
		}
		return err
	}
	err = rend.Begin()
	if err == nil {
		err = experiments.StreamElements(ctx, eng, targets, experiments.Options{}, emit)
	}
	if err == nil {
		err = rend.End()
	}
	wall := time.Since(start)
	u1 := snapshot()
	if c.traced {
		root.end()
	}
	if err != nil {
		return nil, fmt.Errorf("regen_cold: %w", err)
	}

	res := &passResult{
		WallS:     wall.Seconds(),
		CPUS:      (u1.cpu - u0.cpu).Seconds(),
		PeakRSSMB: peakRSSMB(),
		Steal:     stealShare(u0, u1, c.nproc),
		Attempted: n,
		Capacity:  float64(n) / wall.Seconds(),
	}
	if err := checkDigest("regen_cold output", out.Bytes(), regenRef); err != nil {
		res.Failed = n
		res.GateErr = err.Error()
	}
	if !c.traced {
		return res, nil
	}

	st := eng.Stats()
	l := res.layers()
	analytic, critical, sum, lastEnd := 0.0, 0.0, 0.0, time.Duration(0)
	heavy := map[string]bool{}
	for _, id := range regenHeavy {
		heavy[id] = true
	}
	for i, e := range targets {
		d := execDur[i].Seconds()
		sum += d
		critical = max(critical, d)
		lastEnd = max(lastEnd, execEnd[i])
		if heavy[e.ID] {
			l["experiments."+e.ID+"_s"] = d
		} else {
			analytic += d
		}
		if wait := release[i] - (execEnd[i] - root.s.Start).Seconds(); wait > 0 {
			l["experiments.release_wait_s"] += wait
		}
	}
	l["experiments.analytic_s"] = analytic
	l["experiments.critical_s"] = critical
	l["experiments.concurrency"] = sum / wall.Seconds()
	l["experiments.tail_s"] = (root.s.Start + wall - lastEnd).Seconds()
	engineLayers(l, st)
	l["sim.runs"] = float64(sim.Runs() - runs0)
	l["report.render_s"] = renderTime.Seconds()
	l["report.bytes"] = float64(out.Len())
	runtimeLayers(l, u0, u1)
	res.finishTrace(c, rec)
	return res, nil
}

// engineLayers records the engine counters of an engine created for the
// pass, so its totals are the pass's deltas.
func engineLayers(l map[string]float64, st engine.Stats) {
	l["engine.executed"] = float64(st.Executed)
	l["engine.inline"] = float64(st.Inline)
	l["engine.mem_hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
	l["engine.store_hit_ratio"] = ratio(float64(st.StoreHits), float64(st.StoreHits+st.StoreMisses))
}

func runtimeLayers(l map[string]float64, u0, u1 usage) {
	l["runtime.alloc_mb"] = float64(u1.allocs-u0.allocs) / (1 << 20)
	l["runtime.gc_count"] = float64(u1.gcs - u0.gcs)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
