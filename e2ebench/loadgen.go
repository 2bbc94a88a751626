package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mergescale/internal/experiments"
	"mergescale/internal/report"
)

// request is one generated HTTP request: GET /run/{Target}?format=F, or
// POST /sweep?format=F with Body.
type request struct {
	Sweep  bool
	Target string
	Format string
	Body   []byte
}

// outcome is what the client saw. Times are offsets from the phase start;
// for the closed loop a request is due when it is sent.
type outcome struct {
	due, end, firstRow time.Duration
	ok                 bool
	hit                bool // X-Render-Cache: hit
	bytes              int
	sum                [sha256.Size]byte
}

// sweepBudgets and sweepRs fix the grid of every generated sweep: one
// point per app, so a sweep is one point the store has and one it must
// compute and write. A store write is a file create, which costs
// hundreds of µs of system time on a virtualized disk shared with other
// tenants; bigger grids made the run's latencies follow the disk's
// neighbours instead of the program.
var (
	sweepBudgets = []int{16}
	sweepRs      = []float64{4}
)

// runAlpha is the /run power-law skew: the Zipf s of the repository's
// own power-law traffic (internal/load's default, pinned by
// scripts/bench.sh). It is assumed traffic, not measured traffic.
const runAlpha = 1.5

// generator derives the serve_mixed traffic from the workload seed. /run
// requests draw their target the way internal/load's power-law profile
// does — Zipf over the registry ids in registry order, the order a client
// discovers them in from GET /experiments — and their format uniformly
// from the renderer's formats. Every /sweep grid is fresh, pairing one app
// from the pool set-up persisted (drawn without replacement) with one app
// nobody has computed.
type generator struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	ids     []string
	formats []string
	pool    []experiments.SweepApp
	seen    map[experiments.SweepApp]bool
}

func newGenerator(seed int64, poolSize int) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), formats: report.Formats(),
		seen: map[experiments.SweepApp]bool{}}
	for _, e := range experiments.Registry() {
		g.ids = append(g.ids, e.ID)
	}
	g.zipf = rand.NewZipf(g.rng, runAlpha, 1, uint64(len(g.ids)-1))
	for len(g.pool) < poolSize {
		g.pool = append(g.pool, g.app())
	}
	return g
}

// app draws an application no earlier draw produced.
func (g *generator) app() experiments.SweepApp {
	for {
		a := experiments.SweepApp{
			F:     0.9 + float64(g.rng.Intn(99_000))/1e6,
			FCon:  float64(g.rng.Intn(10_001)) / 1e4,
			FOred: float64(g.rng.Intn(15_001)) / 1e4,
		}
		if !g.seen[a] {
			g.seen[a] = true
			return a
		}
	}
}

func (g *generator) run() request {
	return request{Target: g.ids[g.zipf.Uint64()], Format: g.formats[g.rng.Intn(len(g.formats))]}
}

func (g *generator) sweep() request {
	if len(g.pool) == 0 {
		panic("e2ebench: sweep pool exhausted") // sized from the request counts
	}
	apps := []experiments.SweepApp{g.pool[0], g.app()}
	g.pool = g.pool[1:]
	g.rng.Shuffle(2, func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	format := "markdown"
	if g.rng.Intn(2) == 1 {
		format = "csv"
	}
	return request{Sweep: true, Format: format, Body: sweepBody(apps)}
}

// sweepBody encodes a grid of apps over sweepBudgets and sweepRs.
func sweepBody(apps []experiments.SweepApp) []byte {
	var b bytes.Buffer
	b.WriteString(`{"apps":[`)
	for i, a := range apps {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"f":` + fmtF(a.F) + `,"fcon":` + fmtF(a.FCon) + `,"fored":` + fmtF(a.FOred) + `}`)
	}
	b.WriteString(`],"budgets":[`)
	for i, n := range sweepBudgets {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(n))
	}
	b.WriteString(`],"rs":[`)
	for i, r := range sweepRs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(fmtF(r))
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

func (r request) String() string {
	if r.Sweep {
		return "POST /sweep?format=" + r.Format + " " + string(r.Body)
	}
	return "GET /run/" + r.Target + "?format=" + r.Format
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// readBufs recycles fetch's read buffers: the load generator shares the
// process, and so the garbage collector, with the server it measures.
var readBufs = sync.Pool{New: func() any { b := make([]byte, 32<<10); return &b }}

// fetch sends req to base and reads the whole body, timing the first
// sweep table row and the last byte against start.
func fetch(ctx context.Context, client *http.Client, base string, req request, start time.Time) outcome {
	var hr *http.Request
	var err error
	if req.Sweep {
		hr, err = http.NewRequestWithContext(ctx, http.MethodPost, base+"/sweep?format="+req.Format, bytes.NewReader(req.Body))
	} else {
		hr, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/run/"+req.Target+"?format="+req.Format, nil)
	}
	var o outcome
	if err != nil {
		return o
	}
	resp, err := client.Do(hr)
	if err != nil {
		return o
	}
	defer resp.Body.Close()
	o.hit = resp.Header.Get("X-Render-Cache") == "hit"
	h := sha256.New()
	var seen []byte // sweep bodies, kept until the first row shows
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	buf := *bp
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			h.Write(buf[:n])
			o.bytes += n
			if req.Sweep && o.firstRow == 0 {
				seen = append(seen, buf[:n]...)
				if hasFirstRow(seen, req.Format) {
					o.firstRow = time.Since(start)
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return o // truncated
		}
	}
	o.end = time.Since(start)
	h.Sum(o.sum[:0])
	o.ok = resp.StatusCode == http.StatusOK && (!req.Sweep || o.firstRow > 0)
	return o
}

// hasFirstRow reports whether body holds a complete first table row: the
// line after the markdown separator or the csv column header.
func hasFirstRow(body []byte, format string) bool {
	marker := []byte("r,cores,speedup\n")
	if format == "markdown" {
		marker = []byte("| --- | --- | --- |\n")
	}
	i := bytes.Index(body, marker)
	return i >= 0 && bytes.IndexByte(body[i+len(marker):], '\n') >= 0
}

// openLoop sends n requests at a fixed rate over conns workers, whatever
// the server does. A request is due at start + i/rate; do times it from
// then, so a stalled server shows in every request queued behind it. The
// returned lateness is how late the scheduler itself dispatched each
// request, in ms — the generator's own error, not the server's.
func openLoop(n int, rate float64, conns int, start time.Time, do func(i int)) []float64 {
	type item struct{ i int }
	// Sized to the number of sends, so dispatch never blocks on busy
	// workers: queueing behind a slow server stays in the latency.
	ch := make(chan item, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range ch {
				do(it.i)
			}
		}()
	}
	late := make([]float64, n)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < n; i++ {
		due := start.Add(dueAt(i, rate))
		sleepUntil(due)
		late[i] = ms(time.Since(due))
		ch <- item{i}
	}
	close(ch)
	wg.Wait()
	return late
}

// sleepUntil sleeps in nanosleep(2) rather than time.Sleep: the
// runtime's timers wake through the network poller's millisecond timeout,
// which on Linux overshoots by about half a millisecond, as much as a
// warm /run takes. The caller locks its OS thread so the wake-up does not
// wait for another thread to be scheduled.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// closedLoop runs n requests over clients workers, each sending its next
// request when the previous one completes.
func closedLoop(n, clients int, do func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// dueAt is request i's due offset in an open loop.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}
