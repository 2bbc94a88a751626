package experiments

import (
	"context"
	"fmt"
	"sync"

	"mergescale/internal/engine"
	"mergescale/internal/report"
)

// Outcome is the result of one experiment submitted through the engine.
type Outcome struct {
	Experiment
	Doc    *report.Document
	Err    error
	Cached bool
}

// Sink consumes completed outcomes in target order. Returning a non-nil
// error stops delivery — no later outcome reaches the sink, Stream returns
// that error, and the run's derived context is cancelled so outstanding
// engine jobs stop instead of computing results nobody will read (a
// disconnected HTTP client must not keep burning simulator time).
// Cancelled jobs are never persisted to the cache, so an aborted stream
// cannot poison later runs.
type Sink func(Outcome) error

// Stream executes targets through eng and hands each outcome to sink as
// soon as it is ready AND every earlier target has been delivered. Outcomes
// therefore arrive in target order — streamed rendering is byte-identical
// to a buffered run — but the first outcome is released when the first
// target resolves, not when the slowest one does, and at most the
// out-of-order suffix of completed outcomes is ever held in memory.
//
// Completion is driven by the engine's per-job OnDone hook, so there is no
// polling: hooks fire on whichever goroutine resolved each job (a pool
// worker, or this goroutine via the caller-runs-inline invariant) and park
// their outcome in a small in-order release buffer; the buffer's lock
// serializes sink calls, so the sink itself needs no synchronization.
// Cancelled targets are delivered like any other outcome, carrying the
// context error.
//
// A nil eng runs the targets serially on the calling goroutine, delivering
// each outcome as it is computed (and stopping early on a sink error).
func Stream(ctx context.Context, eng *engine.Engine, targets []Experiment, opt Options, sink Sink) error {
	if eng == nil {
		opt.Engine = nil
		for _, e := range targets {
			o := Outcome{Experiment: e}
			o.Doc, o.Err = e.Run(ctx, opt)
			if err := sink(o); err != nil {
				return err
			}
		}
		return nil
	}

	// Every job — including nested sub-jobs sharded from inside experiment
	// functions via opt.Engine — runs under this derived context, so a sink
	// error cancels the whole remaining run promptly.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	opt.Engine = eng
	rel := &releaser{pending: make([]*Outcome, len(targets)), sink: sink, cancel: cancel}
	jobs := make([]engine.Job, len(targets))
	for i, e := range targets {
		i, e := i, e
		jobs[i] = engine.Job{
			ID:  e.ID,
			Key: cacheKey(e, opt),
			Fn: func(ctx context.Context) (any, error) {
				return e.Run(ctx, opt)
			},
			OnDone: func(r engine.Result) {
				rel.release(i, outcomeOf(e, r))
			},
		}
	}
	eng.Run(ctx, jobs)
	return rel.err()
}

// RunAll executes targets through eng and returns every outcome in target
// order. It is the buffered form of Stream — same bytes when rendered,
// whole-run latency — for callers that need the complete result set at
// once. A nil eng runs the targets serially on the calling goroutine.
func RunAll(ctx context.Context, eng *engine.Engine, targets []Experiment, opt Options) []Outcome {
	outcomes := make([]Outcome, 0, len(targets))
	// The collecting sink never errors, so every outcome — including
	// errored and cancelled ones — is recorded, exactly as before the
	// streaming refactor.
	_ = Stream(ctx, eng, targets, opt, func(o Outcome) error {
		outcomes = append(outcomes, o)
		return nil
	})
	return outcomes
}

// outcomeOf converts one engine result into the experiment-level outcome.
func outcomeOf(e Experiment, r engine.Result) Outcome {
	o := Outcome{Experiment: e, Cached: r.Cached, Err: r.Err}
	if r.Err != nil {
		return o
	}
	doc, ok := r.Value.(*report.Document)
	if !ok {
		o.Err = fmt.Errorf("%s: unexpected result type %T", e.ID, r.Value)
		return o
	}
	o.Doc = doc
	return o
}

// releaser is the in-order release buffer behind Stream: completed
// outcomes park under their target index until every earlier target has
// been delivered, then flush to the sink in index order. One lock both
// guards the buffer and serializes sink calls, so delivery order is total
// no matter which engine worker finishes first.
type releaser struct {
	mu      sync.Mutex
	pending []*Outcome
	next    int // lowest target index not yet delivered
	sink    Sink
	sinkErr error
	stopped bool
	cancel  context.CancelFunc // stops outstanding jobs on the first sink error
}

// release parks outcome i and flushes the contiguous ready prefix.
func (r *releaser) release(i int, o Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pending[i] = &o
	for r.next < len(r.pending) && r.pending[r.next] != nil {
		out := *r.pending[r.next]
		r.pending[r.next] = nil // release the document as soon as it is sunk
		r.next++
		if r.stopped {
			continue
		}
		if err := r.sink(out); err != nil {
			r.sinkErr = err
			r.stopped = true
			if r.cancel != nil {
				// Outstanding jobs would only produce dropped results from
				// here on; cancel them so they stop burning compute. Their
				// cancelled outcomes still flow through release (keeping the
				// buffer's accounting exact) but never reach the sink.
				r.cancel()
			}
		}
	}
}

// err returns the first sink error, once all jobs have resolved.
func (r *releaser) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// StreamElements is the element-granular form of Stream: instead of
// releasing whole documents it releases individual report elements — table
// frames, rows, chart series — in target order, so an experiment's first
// table row reaches emit the moment it is produced (for simulator figures,
// the moment its engine sub-job resolves), not when the whole experiment
// does.
//
// Each target runs with opt.Emit wired into an in-order element release
// buffer: the head target's elements forward to emit live, later targets'
// elements park until every earlier target has fully delivered.
// Experiments that ignore opt.Emit (and targets satisfied from the cache,
// whose run function never executes — including duplicate submissions that
// join another caller's in-flight job) deliver by replaying
// doc.Elements() at release, so every document crosses emit exactly once
// and in exactly the order Document.Elements() defines. A consumer of
// this stream therefore renders byte-identically to a buffered run.
//
// The first error — a failed target or an emit error — stops the stream:
// later elements are dropped, the derived context is cancelled so
// outstanding jobs stop computing, and StreamElements returns it.
// Cancelled jobs are never cached, so an aborted stream cannot poison
// later runs. Unlike Stream's sink, emit has no per-document error
// envelope: a target that fails after emitting (its elements already
// forwarded) leaves a truncated stream behind, exactly like a mid-stream
// renderer failure.
//
// A nil eng runs the targets serially on the calling goroutine, emitting
// live and stopping on the first error.
func StreamElements(ctx context.Context, eng *engine.Engine, targets []Experiment, opt Options, emit func(report.Element) error) error {
	if eng == nil {
		opt.Engine = nil
		for _, e := range targets {
			emitted := false
			o := opt
			o.Emit = func(el report.Element) error {
				emitted = true
				return emit(el)
			}
			doc, err := e.Run(ctx, o)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			if !emitted {
				for _, el := range doc.Elements() {
					if err := emit(el); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	opt.Engine = eng
	rel := &elemReleaser{
		buf:     make([][]report.Element, len(targets)),
		emitted: make([]bool, len(targets)),
		outcome: make([]*Outcome, len(targets)),
		emit:    emit,
		cancel:  cancel,
	}
	jobs := make([]engine.Job, len(targets))
	for i, e := range targets {
		i, e := i, e
		o := opt
		o.Emit = func(el report.Element) error { return rel.elem(i, el) }
		jobs[i] = engine.Job{
			ID:  e.ID,
			Key: cacheKey(e, opt),
			Fn: func(ctx context.Context) (any, error) {
				return e.Run(ctx, o)
			},
			OnDone: func(r engine.Result) {
				rel.done(i, outcomeOf(e, r))
			},
		}
	}
	eng.Run(ctx, jobs)
	return rel.err()
}

// elemReleaser is the element-granular release buffer behind
// StreamElements. head is the lowest target index not yet fully
// delivered: its live elements forward straight to emit, later targets
// buffer per index. When the head target's job resolves, its outcome is
// finalized (replaying doc.Elements() if it never emitted live) and head
// advances, flushing the next target's buffered prefix. One lock guards
// the buffer and serializes emit, so element order is total no matter
// which engine worker produces what.
type elemReleaser struct {
	mu      sync.Mutex
	head    int
	buf     [][]report.Element
	emitted []bool
	outcome []*Outcome
	emit    func(report.Element) error
	failure error
	stopped bool
	cancel  context.CancelFunc
}

// elem receives one live element from target i's opt.Emit hook. The
// returned error (the stream's first failure, if any) propagates back
// into the producing experiment's Emitter, which latches it and stops
// sending — the experiment keeps building its document regardless.
func (r *elemReleaser) elem(i int, el report.Element) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.emitted[i] = true
	if r.stopped {
		return r.failure
	}
	if i == r.head {
		if err := r.emit(el); err != nil {
			r.fail(err)
			return err
		}
		return nil
	}
	r.buf[i] = append(r.buf[i], el)
	return nil
}

// done parks target i's outcome and advances the head past every target
// that is now fully delivered.
func (r *elemReleaser) done(i int, o Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outcome[i] = &o
	for r.head < len(r.outcome) {
		h := r.head
		// Flush elements the new head buffered while waiting its turn;
		// anything it emits from here on forwards live through elem.
		for len(r.buf[h]) > 0 {
			el := r.buf[h][0]
			r.buf[h] = r.buf[h][1:]
			if r.stopped {
				continue
			}
			if err := r.emit(el); err != nil {
				r.fail(err)
			}
		}
		out := r.outcome[h]
		if out == nil {
			return // head target still running; its elements stream live
		}
		if !r.stopped {
			if out.Err != nil {
				r.fail(fmt.Errorf("%s: %w", out.ID, out.Err))
			} else if !r.emitted[h] {
				// Cached, joined, or emit-unaware target: replay the full
				// fine-grained stream from the finished document.
				for _, el := range out.Doc.Elements() {
					if err := r.emit(el); err != nil {
						r.fail(err)
						break
					}
				}
			}
		}
		r.buf[h], r.outcome[h] = nil, nil // release the document once delivered
		r.head++
	}
}

// fail records the stream's first error and cancels outstanding jobs.
func (r *elemReleaser) fail(err error) {
	if r.stopped {
		return
	}
	r.failure = err
	r.stopped = true
	if r.cancel != nil {
		r.cancel()
	}
}

// err returns the first stream error, once all jobs have resolved.
func (r *elemReleaser) err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failure
}
