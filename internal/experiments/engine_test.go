package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mergescale/internal/engine"
	"mergescale/internal/engine/diskcache"
	"mergescale/internal/report"
)

// renderAll renders outcomes in order, failing on any experiment error.
func renderAll(t *testing.T, outcomes []Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
		if err := o.Doc.Render(&buf); err != nil {
			t.Fatalf("%s: render: %v", o.ID, err)
		}
	}
	return buf.Bytes()
}

// TestRunAllMatchesSerial is the headline determinism guarantee: the
// rendered output of a concurrent engine run over the full registry is
// byte-identical to a serial run, for several worker counts.
func TestRunAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ctx := context.Background()
	reg := Registry()
	want := renderAll(t, RunAll(ctx, nil, reg, quick))
	if len(want) == 0 {
		t.Fatal("serial run rendered nothing")
	}
	for _, workers := range []int{1, 2, 8} {
		eng := engine.New(engine.Config{Workers: workers})
		got := renderAll(t, RunAll(ctx, eng, reg, quick))
		if !bytes.Equal(want, got) {
			t.Fatalf("workers=%d: parallel rendering differs from serial (%d vs %d bytes)", workers, len(got), len(want))
		}
	}
}

// TestRunAllCacheReplay runs the registry twice on one engine: the second
// pass must be served entirely from the cache.
func TestRunAllCacheReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ctx := context.Background()
	reg := Registry()
	eng := engine.New(engine.Config{Workers: 4})

	first := renderAll(t, RunAll(ctx, eng, reg, quick))
	executed := eng.Stats().Executed

	outcomes := RunAll(ctx, eng, reg, quick)
	for _, o := range outcomes {
		if !o.Cached {
			t.Errorf("%s: second run not served from cache", o.ID)
		}
	}
	if again := eng.Stats().Executed; again != executed {
		t.Errorf("second run executed %d new jobs, want 0", again-executed)
	}
	second := renderAll(t, outcomes)
	if !bytes.Equal(first, second) {
		t.Error("cached replay rendered differently")
	}

	// Different options must NOT hit the quick-mode cache entries.
	fig4, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if k1, k2 := cacheKey(fig4, quick), cacheKey(fig4, Options{}); k1 == k2 {
		t.Error("cache key ignores Options differences")
	}
	// The engine pointer must not influence the key (it is scheduling
	// state, not configuration).
	withEng := quick
	withEng.Engine = eng
	if cacheKey(fig4, quick) != cacheKey(fig4, withEng) {
		t.Error("cache key depends on the engine pointer")
	}
	// Timing-sensitive experiments on wall clock are uncacheable.
	fig2c, err := ByID("fig2c")
	if err != nil {
		t.Fatal(err)
	}
	if k := cacheKey(fig2c, Options{UseDuration: true}); k != "" {
		t.Errorf("fig2c with -duration got cache key %q, want uncacheable", k)
	}
	if k := cacheKey(fig2c, Options{}); k == "" {
		t.Error("fig2c without -duration should be cacheable")
	}
}

// TestRunAllCancellation cancels a registry run up front: every outcome
// must carry the context error and none may hold a document.
func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := engine.New(engine.Config{Workers: 4})
	for _, o := range RunAll(ctx, eng, Registry(), quick) {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", o.ID, o.Err)
		}
		if o.Doc != nil {
			t.Errorf("%s: cancelled run produced a document", o.ID)
		}
	}
	// The cancelled results must not have poisoned the cache.
	outcomes := RunAll(context.Background(), eng, Registry()[:1], quick)
	if outcomes[0].Err != nil || outcomes[0].Doc == nil {
		t.Fatalf("run after cancellation: %+v", outcomes[0])
	}
}

// TestRunAllSubset checks single-target submission (the cmd path for
// `run <id>`).
func TestRunAllSubset(t *testing.T) {
	eng := engine.New(engine.Config{Workers: 4})
	e, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	outcomes := RunAll(context.Background(), eng, []Experiment{e}, quick)
	if outcomes[0].Err != nil {
		t.Fatal(outcomes[0].Err)
	}
}

// TestStreamMatchesBuffered: the element stream of the full registry
// renders the same markdown as a buffered serial RunAll at worker
// counts {1,4,8}, and RunAll on an engine of the same width hands back
// its outcomes in registry order, whatever order the jobs finished in.
func TestStreamMatchesBuffered(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ctx := context.Background()
	reg := Registry()
	want := renderBuffered(t, "markdown", RunAll(ctx, nil, reg, quick))
	for _, workers := range []int{1, 4, 8} {
		outcomes := RunAll(ctx, engine.New(engine.Config{Workers: workers}), reg, quick)
		if len(outcomes) != len(reg) {
			t.Fatalf("workers=%d: RunAll returned %d outcomes, want %d", workers, len(outcomes), len(reg))
		}
		for i, o := range outcomes {
			if o.ID != reg[i].ID {
				t.Fatalf("workers=%d: outcome %d is %s, want %s (out of order)", workers, i, o.ID, reg[i].ID)
			}
		}
		if got := renderBuffered(t, "markdown", outcomes); !bytes.Equal(want, got) {
			t.Fatalf("workers=%d: engine RunAll markdown differs from serial (%d vs %d bytes)", workers, len(got), len(want))
		}
		eng := engine.New(engine.Config{Workers: workers})
		if got := renderStreamElements(t, eng, reg, "markdown"); !bytes.Equal(want, got) {
			t.Fatalf("workers=%d: streamed markdown differs from buffered (%d vs %d bytes)", workers, len(got), len(want))
		}
	}
}

// TestStreamSinkError: an emit hook that fails on its first element
// fails a full-registry stream with exactly that error and is never
// called again — serially and on engines of 1 and 4 workers.
func TestStreamSinkError(t *testing.T) {
	boom := errors.New("sink exploded")
	reg := Registry()
	for _, eng := range []*engine.Engine{nil, engine.New(engine.Config{Workers: 1}), engine.New(engine.Config{Workers: 4})} {
		calls := 0
		err := StreamElements(context.Background(), eng, reg, quick, func(report.Element) error {
			calls++
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("engine=%v: StreamElements returned %v, want emit error", eng != nil, err)
		}
		if calls != 1 {
			t.Fatalf("engine=%v: emit called %d times after erroring, want 1", eng != nil, calls)
		}
	}
}

// TestStreamSinkErrorCancelsOutstandingJobs: once the stream's sink — the
// emit callback — errors, jobs that were already submitted must observe
// cancellation instead of running to completion for a result nobody will
// read (the disconnected-HTTP-client case). The slow target blocks until its context is cancelled; if the
// emit error did not propagate, it would sit in its 10s fallback and the
// test would time out.
func TestStreamSinkErrorCancelsOutstandingJobs(t *testing.T) {
	boom := errors.New("client gone")
	slowStarted := make(chan struct{})
	// fast completes only once slow is running, so the emit error (and the
	// cancellation it triggers) always races against a job that is already
	// in flight — the scenario under test — never one the engine can skip
	// with its pre-execution ctx check. fast ignores opt.Emit, so its
	// elements reach emit by replay when its job resolves.
	fast := Experiment{ID: "fake-fast", Title: "fast", Run: func(ctx context.Context, opt Options) (*report.Document, error) {
		<-slowStarted
		return &report.Document{ID: "fake-fast", Title: "fast"}, nil
	}}
	slowObserved := make(chan error, 1)
	slow := Experiment{ID: "fake-slow", Title: "slow", Run: func(ctx context.Context, opt Options) (*report.Document, error) {
		close(slowStarted)
		select {
		case <-ctx.Done():
			slowObserved <- ctx.Err()
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			err := errors.New("job outlived the emit error")
			slowObserved <- err
			return nil, err
		}
	}}

	eng := engine.New(engine.Config{Workers: 2})
	calls := 0
	err := StreamElements(context.Background(), eng, []Experiment{fast, slow}, quick, func(report.Element) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("StreamElements returned %v, want emit error", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times, want 1", calls)
	}
	select {
	case observed := <-slowObserved:
		if !errors.Is(observed, context.Canceled) {
			t.Fatalf("outstanding job observed %v, want context.Canceled", observed)
		}
	default:
		t.Fatal("outstanding job never ran (test setup assumed it was submitted)")
	}
}

// TestStreamCancellation: a stream over an already-cancelled context
// emits nothing and returns the context error, named by the first target,
// for both the engine and the serial form.
func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := Registry()
	for _, eng := range []*engine.Engine{nil, engine.New(engine.Config{Workers: 4})} {
		calls := 0
		err := StreamElements(ctx, eng, reg, quick, func(report.Element) error {
			calls++
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("engine=%v: StreamElements returned %v, want context.Canceled", eng != nil, err)
		}
		if want := reg[0].ID + ": "; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("engine=%v: error %q does not name the first target", eng != nil, err)
		}
		if calls != 0 {
			t.Errorf("engine=%v: cancelled stream emitted %d elements, want 0", eng != nil, calls)
		}
	}
}

// TestStreamWarmDiskCacheRoundTrip round-trips streamed documents through
// a warm persistent cache: a second element stream from a fresh engine
// and store over the same directory must execute nothing, serve every
// lookup from disk, and render byte-identical markdown — proving the gob
// envelope path and the streaming pipeline compose.
func TestStreamWarmDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	target := []Experiment{Registry()[9]} // fig4: cheap, analytical
	if target[0].ID != "fig4" {
		t.Fatalf("registry order changed: got %s, want fig4", target[0].ID)
	}

	cold, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldMD := renderStreamElements(t, engine.New(engine.Config{Workers: 2, Store: cold}), target, "markdown")

	warm, err := diskcache.Open(dir, diskcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, Store: warm})
	warmMD := renderStreamElements(t, eng, target, "markdown")
	st := eng.Stats()
	if st.Executed != 0 {
		t.Errorf("warm streamed run executed %d jobs, want 0", st.Executed)
	}
	if st.StoreHits != 1 || st.StoreMisses != 0 {
		t.Errorf("warm streamed run: %d store hits / %d misses, want 1 / 0", st.StoreHits, st.StoreMisses)
	}
	if !bytes.Equal(coldMD, warmMD) {
		t.Error("warm streamed markdown differs from cold")
	}
}
