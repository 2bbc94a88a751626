package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/sim"
	"mergescale/internal/workload"
	"mergescale/internal/workload/contend"
	"mergescale/internal/workload/datagen"
	"mergescale/internal/workload/fuzzy"
	"mergescale/internal/workload/hop"
	"mergescale/internal/workload/kmeans"
)

// simRef is the SHA-256 of every grid point's cycles, phases and counters
// (see simRecord).
const simRef = "b36e4c4dfe4a6cf305bdec5bf7286f17420ffa327f87624485f72b555177c180"

// simCores is the many-core column of the grid: only these sizes reach
// the 256-core directory path.
var simCores = []int{64, 128, 256}

// simApps returns the grid's rows in canonical order; contend runs joined
// at its default alpha.
func simApps() []workload.Workload {
	return []workload.Workload{kmeans.New(), fuzzy.New(), hop.New(), contend.New()}
}

type simPoint struct {
	w    workload.Workload
	ds   *datagen.Dataset
	cfg  sim.Config
	name string // e.g. hop256
}

// simPass runs the {kmeans, fuzzy, hop, contend} x {64, 128, 256} grid at
// scale 1, one engine job per point calling workload.RunSim on an
// nproc-worker engine with no store, submitted in grid order. The grid is
// fixed, so the seed changes nothing: a seeded submission order would make
// the per-point times a property of the seed rather than the program.
func simPass(ctx context.Context, c childConfig, ready func()) (*passResult, error) {
	apps := simApps()
	var points []simPoint
	for _, w := range apps {
		ds, err := datagen.Generate(w.DefaultSpec())
		if err != nil {
			return nil, fmt.Errorf("sim_manycore: %s data set: %w", w.Name(), err)
		}
		for _, cores := range simCores {
			points = append(points, simPoint{w: w, ds: ds, cfg: sim.DefaultConfig(cores),
				name: w.Name() + strconv.Itoa(cores)})
		}
	}
	eng := engine.New(engine.Config{Workers: c.nproc})

	var rec *recorder
	var root open
	if c.traced {
		rec = newRecorder()
	}
	spanDur := make([]time.Duration, len(points))
	jobs := make([]engine.Job, len(points))
	for i, p := range points {
		i, p := i, p
		jobs[i] = engine.Job{
			ID:  "sim:" + p.name,
			Key: workload.SimRunKey(p.w, p.ds.Spec, p.cfg, 1),
			Fn: func(context.Context) (any, error) {
				if !c.traced {
					return workload.RunSim(p.w, p.ds, p.cfg, 1)
				}
				sp := rec.begin("sim", p.name, root.id(), uint64(i+1))
				r, err := workload.RunSim(p.w, p.ds, p.cfg, 1)
				spanDur[i] = sp.end()
				return r, err
			},
		}
	}

	ready()
	u0, runs0 := snapshot(), sim.Runs()
	if c.traced {
		root = rec.begin("harness", "sim_manycore", 0, 0)
	}
	start := time.Now()
	results := eng.Run(ctx, jobs)
	wall := time.Since(start)
	u1 := snapshot()
	if c.traced {
		root.end()
	}

	res := &passResult{
		WallS:     wall.Seconds(),
		CPUS:      (u1.cpu - u0.cpu).Seconds(),
		PeakRSSMB: peakRSSMB(),
		Steal:     stealShare(u0, u1, c.nproc),
		Attempted: len(points),
		Capacity:  float64(len(points)) / wall.Seconds(),
	}
	runs := make([]workload.SimRun, len(points))
	for j, r := range results {
		run, ok := r.Value.(workload.SimRun)
		if r.Err != nil || !ok {
			res.Failed++
			res.GateErr = fmt.Sprintf("%s: %v", jobs[j].ID, r.Err)
			continue
		}
		runs[j] = run
	}
	if res.Failed == 0 {
		if err := checkDigest("sim_manycore results", simRecord(runs), simRef); err != nil {
			res.Failed = len(points)
			res.GateErr = err.Error()
		}
	}
	if !c.traced {
		return res, nil
	}

	l := res.layers()
	var busy time.Duration
	var accesses uint64
	for i, p := range points {
		l["sim."+p.name+"_s"] = spanDur[i].Seconds()
		busy += spanDur[i]
		accesses += runs[i].Counters.Loads + runs[i].Counters.Stores
	}
	l["sim.accesses"] = float64(accesses)
	l["sim.ns_per_access"] = ratio(float64(busy.Nanoseconds()), float64(accesses))
	l["sim.runs"] = float64(sim.Runs() - runs0)
	engineLayers(l, eng.Stats())
	runtimeLayers(l, u0, u1)
	res.finishTrace(c, rec)
	return res, nil
}

// simRecord serializes every point's cycles, phases and counters in
// canonical grid order; the gate hashes it.
func simRecord(runs []workload.SimRun) []byte {
	var b bytes.Buffer
	for _, r := range runs {
		fmt.Fprintf(&b, "%s|%d|%d|%d|%+v|%+v\n", r.Workload, r.Cores, r.Scale, r.Cycles, r.Phases, r.Counters)
	}
	return b.Bytes()
}
