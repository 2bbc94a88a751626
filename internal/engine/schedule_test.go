package engine

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scheduleTimeout bounds every wait in these tests: a scheduler that
// never starts the awaited job fails loudly instead of hanging.
const scheduleTimeout = 10 * time.Second

// goid returns the current goroutine's id, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	return string(buf[:bytes.IndexByte(buf, ' ')])
}

// waitFor blocks until ch is closed or the timeout fires; it reports
// whether ch closed in time.
func waitFor(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(scheduleTimeout):
		return false
	}
}

// TestPullSchedulingTakesNextJob: at Workers=2, job A waits until B has
// started and B waits until C has started. The worker that finishes A
// must claim C; a scheduler that runs B on the submitting goroutine and
// only then submits C never starts C while B waits.
func TestPullSchedulingTakesNextJob(t *testing.T) {
	e := New(Config{Workers: 2})
	started := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	var timeouts atomic.Int64
	job := func(i int, await int) Job {
		return Job{ID: fmt.Sprint(i), Fn: func(context.Context) (any, error) {
			close(started[i])
			if await >= 0 && !waitFor(started[await]) {
				timeouts.Add(1)
			}
			return i, nil
		}}
	}
	res := e.Run(context.Background(), []Job{job(0, 1), job(1, 2), job(2, -1)})
	if n := timeouts.Load(); n != 0 {
		t.Fatalf("%d jobs timed out waiting for a sibling to start", n)
	}
	for i, r := range res {
		if r.Err != nil || r.Value != i {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

// TestDrainedCallerLendsSlot: at Workers=2, the caller's own job A ends
// only after B's nested Run has started sub-job 0, so that Run finds no
// free slot when it starts. Sub-job 0 ends once the drained caller has
// given its slot back, and sub-job 1 waits until sub-job 2 starts: the
// nested Run must recruit the returned slot when it claims sub-job 1.
func TestDrainedCallerLendsSlot(t *testing.T) {
	e := New(Config{Workers: 2})
	sub0, sub2 := make(chan struct{}), make(chan struct{})
	var timeouts atomic.Int64
	a := Job{ID: "A", Fn: func(context.Context) (any, error) {
		if !waitFor(sub0) {
			timeouts.Add(1)
		}
		return "A", nil
	}}
	b := Job{ID: "B", Fn: func(ctx context.Context) (any, error) {
		res := e.Run(ctx, []Job{
			{ID: "sub0", Fn: func(context.Context) (any, error) {
				close(sub0)
				deadline := time.Now().Add(scheduleTimeout)
				for e.active.Load() >= 2 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				return 0, nil
			}},
			{ID: "sub1", Fn: func(context.Context) (any, error) {
				if !waitFor(sub2) {
					timeouts.Add(1)
				}
				return 1, nil
			}},
			{ID: "sub2", Fn: func(context.Context) (any, error) {
				close(sub2)
				return 2, nil
			}},
		})
		return len(res), nil
	}}
	res := e.Run(context.Background(), []Job{a, b})
	if n := timeouts.Load(); n != 0 {
		t.Fatalf("%d waits timed out: the drained caller's slot was not recruited", n)
	}
	if res[0].Value != "A" || res[1].Value != 3 {
		t.Fatalf("results = %+v", res)
	}
}

// TestWorkersOneSerialOnCaller: at Workers=1 every job, nested ones
// included, runs on the goroutine that called Run, one at a time and in
// submission order.
func TestWorkersOneSerialOnCaller(t *testing.T) {
	e := New(Config{Workers: 1})
	caller := goid()
	var order []string
	var inFlight, maxInFlight int
	enter := func(id string) {
		if g := goid(); g != caller {
			t.Errorf("%s ran on goroutine %s, want caller %s", id, g, caller)
		}
		order = append(order, id)
		inFlight++
		maxInFlight = max(maxInFlight, inFlight)
	}
	leaf := func(id string) Job {
		return Job{ID: id, Fn: func(context.Context) (any, error) {
			enter(id)
			inFlight--
			return id, nil
		}}
	}
	jobs := []Job{leaf("a"), {ID: "b", Fn: func(ctx context.Context) (any, error) {
		enter("b")
		inFlight-- // b only waits while its nested jobs run
		e.Run(ctx, []Job{leaf("b0"), leaf("b1")})
		return "b", nil
	}}, leaf("c")}
	e.Run(context.Background(), jobs)
	if got := fmt.Sprint(order); got != "[a b b0 b1 c]" {
		t.Fatalf("execution order %s, want [a b b0 b1 c]", got)
	}
	if maxInFlight != 1 {
		t.Fatalf("%d jobs in flight at once, want 1", maxInFlight)
	}
	if st := e.Stats(); st.Inline != 5 {
		t.Fatalf("inline = %d, want 5", st.Inline)
	}
}

// TestOnDoneOnceUnderCancellation: cancelling mid-run still fires every
// job's hook exactly once, before Run returns, with the result Run
// reports for that job.
func TestOnDoneOnceUnderCancellation(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		e := New(Config{Workers: workers})
		ctx, cancel := context.WithCancel(context.Background())
		const n = 40
		calls := make([]atomic.Int64, n)
		got := make([]Result, n)
		jobs := make([]Job, n)
		for i := range jobs {
			i := i
			jobs[i] = Job{
				ID:  fmt.Sprint(i),
				Key: Key("cancel-ondone", workers, i),
				Fn: func(ctx context.Context) (any, error) {
					if i == n/4 {
						cancel()
					}
					select {
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-time.After(time.Millisecond):
						return i, nil
					}
				},
				OnDone: func(r Result) {
					calls[i].Add(1)
					got[i] = r
				},
			}
		}
		res := e.Run(ctx, jobs)
		cancel()
		for i := range jobs {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("workers=%d: job %d notified %d times, want 1", workers, i, c)
			}
			if got[i] != res[i] {
				t.Errorf("workers=%d: job %d notified %+v, Run returned %+v", workers, i, got[i], res[i])
			}
		}
		if res[n-1].Err == nil {
			t.Errorf("workers=%d: last job finished despite cancellation", workers)
		}
	}
}

// TestThreeLevelNestingNoDeadlock: at Workers=2, jobs that submit
// sub-jobs that submit sub-sub-jobs, with shared keys across branches so
// singleflight waiters are part of the mix, all complete.
func TestThreeLevelNestingNoDeadlock(t *testing.T) {
	e := New(Config{Workers: 2})
	var leaves atomic.Int64
	level := func(depth int, fan int, mk func(int) Job) []Job {
		jobs := make([]Job, fan)
		for i := range jobs {
			jobs[i] = mk(i)
		}
		return jobs
	}
	var mk func(depth, i int) Job
	mk = func(depth, i int) Job {
		return Job{
			ID:  fmt.Sprintf("d%d-%d", depth, i),
			Key: Key("nest3", depth, i),
			Fn: func(ctx context.Context) (any, error) {
				if depth == 3 {
					leaves.Add(1)
					time.Sleep(100 * time.Microsecond)
					return 1, nil
				}
				sum := 0
				for _, r := range e.Run(ctx, level(depth+1, 4, func(j int) Job { return mk(depth+1, j) })) {
					if r.Err != nil {
						return nil, r.Err
					}
					sum += r.Value.(int)
				}
				return sum, nil
			},
		}
	}
	done := make(chan []Result, 1)
	go func() { done <- e.Run(context.Background(), level(1, 6, func(i int) Job { return mk(1, i) })) }()
	select {
	case res := <-done:
		for i, r := range res {
			if r.Err != nil || r.Value != 16 {
				t.Fatalf("top-level job %d = %+v, want 16", i, r)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("three-level nested Run deadlocked")
	}
	if n := leaves.Load(); n != 4 {
		t.Fatalf("%d distinct leaves computed, want 4 (shared keys)", n)
	}
}

// TestHelpersBoundedByWorkers: a flat list never has more than Workers
// jobs in flight, the caller included.
func TestHelpersBoundedByWorkers(t *testing.T) {
	const workers = 3
	e := New(Config{Workers: workers})
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = Job{Fn: func(context.Context) (any, error) {
			n := inFlight.Add(1)
			mu.Lock()
			peak.Store(max(peak.Load(), n))
			mu.Unlock()
			time.Sleep(200 * time.Microsecond)
			inFlight.Add(-1)
			return nil, nil
		}}
	}
	e.Run(context.Background(), jobs)
	if p := peak.Load(); p > workers {
		t.Fatalf("peak jobs in flight = %d, want <= %d", p, workers)
	}
}
