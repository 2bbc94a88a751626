package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"sync"
	"testing"

	"mergescale/internal/engine"
	"mergescale/internal/experiments"
	"mergescale/internal/report"
	"mergescale/internal/sim"
	"mergescale/internal/workload"
)

func TestDigestGateFailsOnFlippedByte(t *testing.T) {
	out := []byte("## table1: Table I: baseline configuration\n| a | b |\n")
	ref := digest(out)
	if err := checkDigest("output", out, ref); err != nil {
		t.Fatalf("unchanged output rejected: %v", err)
	}
	for i := range out {
		flipped := append([]byte(nil), out...)
		flipped[i] ^= 1
		if checkDigest("output", flipped, ref) == nil {
			t.Fatalf("flipping byte %d passed the gate", i)
		}
	}
}

func TestSimGateFailsOnChangedResult(t *testing.T) {
	runs := []workload.SimRun{
		{Workload: "hop", Cores: 256, Scale: 1, Cycles: 46204197,
			Phases:   []sim.PhaseTime{{Name: "density", Cycles: 100}, {Name: "merge", Cycles: 7}},
			Counters: sim.Counters{Loads: 10, Stores: 3, Invalidations: 2}},
		{Workload: "kmeans", Cores: 64, Scale: 1, Cycles: 606102},
	}
	ref := digest(simRecord(runs))
	mutations := []func(r []workload.SimRun){
		func(r []workload.SimRun) { r[0].Cycles++ },
		func(r []workload.SimRun) { r[0].Phases[1].Cycles++ },
		func(r []workload.SimRun) { r[0].Phases[0].Name = "densitx" },
		func(r []workload.SimRun) { r[0].Counters.Invalidations++ },
		func(r []workload.SimRun) { r[1].Cores = 128 },
	}
	for i, mutate := range mutations {
		c := append([]workload.SimRun(nil), runs...)
		c[0].Phases = append([]sim.PhaseTime(nil), runs[0].Phases...)
		mutate(c)
		if checkDigest("sim", simRecord(c), ref) == nil {
			t.Errorf("mutation %d passed the sim gate", i)
		}
	}
	if err := checkDigest("sim", simRecord(runs), ref); err != nil {
		t.Fatalf("unchanged runs rejected: %v", err)
	}
}

// TestServeGateFailsOnFlippedBody checks the serve_mixed gate: responses
// that match the in-process rendering pass, a response with one flipped
// byte is marked failed.
func TestServeGateFailsOnFlippedBody(t *testing.T) {
	ctx := context.Background()
	gen := newGenerator(1, 1)
	reqs := []request{{Target: "table1", Format: "markdown"}, gen.sweep()}
	bodies := make([][]byte, len(reqs))
	e, err := experiments.ByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	bodies[0] = render(t, reqs[0].Format, func(emit func(report.Element) error) error {
		return experiments.StreamElements(ctx, nil, []experiments.Experiment{e}, experiments.Options{Quick: true}, emit)
	})
	plan, err := planOf(reqs[1].Body)
	if err != nil {
		t.Fatal(err)
	}
	bodies[1] = render(t, reqs[1].Format, func(emit func(report.Element) error) error {
		_, err := plan.Run(ctx, experiments.Options{Emit: emit})
		return err
	})

	for flip := -1; flip < len(reqs); flip++ {
		outs := make([]outcome, len(reqs))
		for i, b := range bodies {
			if i == flip {
				b = append([]byte(nil), b...)
				b[len(b)/2] ^= 1
			}
			outs[i] = outcome{ok: true, sum: sha256.Sum256(b)}
		}
		points, err := verifyBodies(ctx, 2, reqs, outs)
		if err != nil {
			t.Fatal(err)
		}
		if want := plan.Points(); points != want {
			t.Errorf("verifyBodies counted %d sweep points, want %d", points, want)
		}
		for i, o := range outs {
			if o.ok != (i != flip) {
				t.Errorf("flipped body %d: request %d ok=%v", flip, i, o.ok)
			}
		}
	}
}

// render is the reference rendering: the serial paths (no engine) into a
// renderer, as the CLI's buffered output does.
func render(t *testing.T, format string, produce func(emit func(report.Element) error) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	r, err := report.NewRenderer(format, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := produce(r.Element); err != nil {
		t.Fatal(err)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mapStore is an in-memory engine.Store that counts its traffic.
type mapStore struct {
	mu         sync.Mutex
	m          map[string]any
	gets, puts int
}

func (s *mapStore) Get(key string) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	v, ok := s.m[key]
	return v, ok
}

func (s *mapStore) Put(key string, val any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = val
}

// TestTimedStoreIsTransparent checks that the traced runs' store wrapper
// leaves values and hit/miss counts exactly as the bare store gives them.
func TestTimedStoreIsTransparent(t *testing.T) {
	seed := map[string]any{"k1": 1, "k3": "three"}
	newStore := func() *mapStore {
		s := &mapStore{m: map[string]any{}}
		for k, v := range seed {
			s.m[k] = v
		}
		return s
	}
	jobs := func() []engine.Job {
		var js []engine.Job
		for _, k := range []string{"k1", "k2", "k3", "k4", "k2", "k5"} {
			k := k
			js = append(js, engine.Job{ID: k, Key: k, Fn: func(context.Context) (any, error) {
				if k == "k5" {
					return nil, errors.New("boom") // errors are never stored
				}
				return "computed " + k, nil
			}})
		}
		return js
	}

	bare := newStore()
	bareEng := engine.New(engine.Config{Workers: 1, Store: bare})
	want := bareEng.Run(context.Background(), jobs())

	inner := newStore()
	timed := &timedStore{inner: inner, rec: newRecorder()}
	eng := engine.New(engine.Config{Workers: 1, Store: timed})
	got := eng.Run(context.Background(), jobs())

	for i := range want {
		if got[i].Value != want[i].Value || (got[i].Err == nil) != (want[i].Err == nil) || got[i].Cached != want[i].Cached {
			t.Errorf("job %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if eng.Stats() != bareEng.Stats() {
		t.Errorf("engine stats through the wrapper %+v, bare %+v", eng.Stats(), bareEng.Stats())
	}
	st := eng.Stats()
	if timed.getN != inner.gets || timed.putN != inner.puts || inner.gets != bare.gets || inner.puts != bare.puts {
		t.Errorf("wrapper counted %d gets / %d puts; store saw %d / %d; bare store %d / %d",
			timed.getN, timed.putN, inner.gets, inner.puts, bare.gets, bare.puts)
	}
	if uint64(timed.hits) != st.StoreHits || uint64(timed.getN) != st.StoreHits+st.StoreMisses {
		t.Errorf("wrapper hits %d of %d gets; engine StoreHits %d StoreMisses %d", timed.hits, timed.getN, st.StoreHits, st.StoreMisses)
	}
	l := map[string]float64{}
	timed.layers(l)
	if l["diskcache.get_n"] != float64(timed.getN) || l["diskcache.put_n"] != float64(timed.putN) {
		t.Errorf("layer metrics %v disagree with the counts", l)
	}
	if n := len(timed.rec.snapshot()); n != timed.getN+timed.putN {
		t.Errorf("%d spans for %d store calls", n, timed.getN+timed.putN)
	}
}
