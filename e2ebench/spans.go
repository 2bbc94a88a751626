package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the harness into a layer of the program.
// Req groups the spans of one request or target; Parent is the span that
// caused this one (0 for a root).
type span struct {
	ID, Parent, Req uint64
	Layer, Name     string
	Start, End      time.Duration // since the recorder's origin
}

// recorder keeps spans in memory until the pass ends. A nil *recorder
// records nothing, which is how untraced passes run: they install no
// wrappers at all, so the recorder is only ever nil in helpers shared by
// both modes.
type recorder struct {
	origin time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// open is a started span; close it with end.
type open struct {
	r     *recorder
	s     span
	start time.Time
}

// begin starts a span in layer under parent.
func (r *recorder) begin(layer, name string, parent, req uint64) open {
	if r == nil {
		return open{}
	}
	now := time.Now()
	return open{r: r, start: now, s: span{ID: r.nextID.Add(1), Parent: parent, Req: req,
		Layer: layer, Name: name, Start: now.Sub(r.origin)}}
}

// end records the span and returns its duration.
func (o open) end() time.Duration {
	if o.r == nil {
		return 0
	}
	now := time.Now()
	o.s.End = now.Sub(o.r.origin)
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, o.s)
	o.r.mu.Unlock()
	return now.Sub(o.start)
}

func (o open) id() uint64 { return o.s.ID }

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each layer's self time in seconds: every span's
// duration minus the part of it its child spans cover, summed per layer.
func selfTimes(spans []span) map[string]float64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		out[s.Layer] += self.Seconds()
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeChromeTrace writes spans as Chrome trace-event JSON (the format
// chrome://tracing and Perfetto load). Overlapping spans go to separate
// lanes so every lane nests properly.
func writeChromeTrace(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]uint64 `json:"args"`
	}
	var laneEnd []time.Duration
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		lane := 0
		for lane < len(laneEnd) && laneEnd[lane] > s.Start {
			lane++
		}
		if lane == len(laneEnd) {
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = s.End
		events = append(events, event{Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: lane, Args: map[string]uint64{"id": s.ID, "parent": s.Parent, "req": s.Req}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
