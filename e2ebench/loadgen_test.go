package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToLatency checks the lateness accounting: when
// the server stalls, requests due during the stall are still dispatched on
// schedule, and their latency, measured from when they were due, carries
// the wait. A closed loop, or timing from the send, would hide it.
func TestOpenLoopChargesStallToLatency(t *testing.T) {
	const (
		n       = 20
		rate    = 200.0 // one request every 5 ms
		stallAt = 4
		stall   = 150 * time.Millisecond
	)
	var mu sync.Mutex
	seen := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen++
		k := seen
		mu.Unlock()
		if k == stallAt+1 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok\n"))
	}))
	defer srv.Close()
	client := srv.Client()

	outs := make([]outcome, n)
	start := time.Now().Add(5 * time.Millisecond)
	late := openLoop(n, rate, 1, start, func(i int) {
		outs[i] = fetch(context.Background(), client, srv.URL, request{Target: "x", Format: "text"}, start)
		outs[i].due = dueAt(i, rate)
	})
	for i, o := range outs {
		if !o.ok {
			t.Fatalf("request %d failed", i)
		}
	}
	// The stalled request and the ones due behind it on the single
	// connection all wait for the stall to end.
	stallEnd := outs[stallAt].end
	if stallEnd < dueAt(stallAt, rate)+stall {
		t.Fatalf("stalled request ended at %v, before its due time plus the stall", stallEnd)
	}
	for i := stallAt + 1; i < n && dueAt(i, rate) < stallEnd; i++ {
		lat := outs[i].end - outs[i].due
		if want := stallEnd - dueAt(i, rate); lat < want {
			t.Errorf("request %d due during the stall: latency %v from due, want >= %v", i, lat, want)
		}
	}
	// The generator itself kept its schedule: the stall is the server's.
	for i, l := range late {
		if l > float64(stall/time.Millisecond)/3 {
			t.Errorf("request %d dispatched %.1f ms late: the stall leaked into the generator", i, l)
		}
	}
}

func TestFetchTimesFirstSweepRow(t *testing.T) {
	for _, tc := range []struct{ format, head, row string }{
		{"markdown", "## sweep\n\n| r | cores | speedup |\n| --- | --- | --- |\n", "| 1 | 16 | 9.14 |\n"},
		{"csv", "# t\nr,cores,speedup\n", "1,16,9.14\n"},
	} {
		release := make(chan struct{})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(tc.head))
			w.(http.Flusher).Flush()
			time.Sleep(20 * time.Millisecond)
			w.Write([]byte(tc.row))
			w.(http.Flusher).Flush()
			<-release
			w.Write([]byte(strings.Repeat("| 2 | 8 | 9.35 |\n", 3)))
		}))
		start := time.Now()
		go func() { time.Sleep(60 * time.Millisecond); close(release) }()
		o := fetch(context.Background(), srv.Client(), srv.URL, request{Sweep: true, Format: tc.format, Body: []byte("{}")}, start)
		srv.Close()
		if !o.ok {
			t.Fatalf("%s: fetch failed", tc.format)
		}
		if o.firstRow < 20*time.Millisecond || o.firstRow >= o.end || o.end < 60*time.Millisecond {
			t.Errorf("%s: first row at %v, end at %v; want the row after 20ms and before the end (>= 60ms)", tc.format, o.firstRow, o.end)
		}
	}
	// A sweep body that never reaches a table row is a failed response.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("## sweep\n\n| r | cores | speedup |\n| --- | --- | --- |\n"))
	}))
	defer srv.Close()
	if o := fetch(context.Background(), srv.Client(), srv.URL, request{Sweep: true, Format: "markdown", Body: []byte("{}")}, time.Now()); o.ok {
		t.Error("a sweep body without a table row counted as ok")
	}
}

// TestLateGeneratorMakesRunInvalid: a serve_mixed run whose generator
// lateness rivals the /run median is invalid, whatever its gates say; one
// that held its schedule is not.
func TestLateGeneratorMakesRunInvalid(t *testing.T) {
	cat := catalogue{EndToEnd: []metricDef{{Name: "wall_s", Unit: "s"}}}
	c := childConfig{workload: "serve_mixed"}
	pass := func(late float64) *passResult {
		return &passResult{WallS: 1, Attempted: 2, Run: []float64{0.4, 0.5}, Late: []float64{late, late}}
	}
	if _, rec := aggregate(c, cat, []*passResult{pass(0.1)}); rec.Invalid != "" {
		t.Errorf("on-schedule run marked invalid: %s", rec.Invalid)
	}
	if res, rec := aggregate(c, cat, []*passResult{pass(0.3)}); rec.Invalid == "" || !res.Correct {
		t.Errorf("late generator: invalid %q, correct %v; want an invalid, otherwise correct run", rec.Invalid, res.Correct)
	}
}
