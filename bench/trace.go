package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call.
type span struct {
	name   string
	parent int   // index of the enclosing span; -1 for a root
	start  int64 // ns since the tracer's epoch
	end    int64
	id     int // pass, corpus or file index
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // indexes of the spans not yet ended, innermost last
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string, id int) {
	t.spans = append(t.spans, span{name: name, parent: t.top(), start: t.now(), id: id})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = t.now()
}

// top is the innermost open span, or -1.
func (t *tracer) top() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// record adds a finished span under parent and returns its index.  Hot
// loops use it to aggregate per-call timings: one span per layer per
// file, its duration the sum of the calls, laid end to end from the
// file's start.
func (t *tracer) record(parent int, name string, id int, start, end int64) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: start, end: end, id: id})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of its interval
// that its child spans cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, k := range kids[i] {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
			}
			reach = max(reach, v[1])
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerTimes sums the self time of every span below root by span name,
// in seconds, and counts the spans.
func layerTimes(spans []span, self []int64, root int) (secs map[string]float64, calls map[string]int) {
	secs, calls = map[string]float64{}, map[string]int{}
	for i, s := range spans {
		if i != root && under(spans, i, root) {
			secs[s.name] += float64(self[i]) / 1e9
			calls[s.name]++
		}
	}
	return secs, calls
}

// under reports whether span i descends from span root.
func under(spans []span, i, root int) bool {
	for p := spans[i].parent; p >= 0; p = spans[p].parent {
		if p == root {
			return true
		}
	}
	return false
}

// writeSelfTable prints one row per span name: calls, self seconds and
// share of the traced wall time, largest first.
func writeSelfTable(w io.Writer, workload string, secs map[string]float64, calls map[string]int, wall float64) {
	names := make([]string, 0, len(secs))
	for n := range secs {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return secs[names[a]] > secs[names[b]] })
	fmt.Fprintf(w, "%s self-time over %.3f s traced wall (workers=1)\n", workload, wall)
	fmt.Fprintf(w, "  %-18s %8s %10s %7s\n", "span", "calls", "self_s", "share")
	for _, n := range names {
		fmt.Fprintf(w, "  %-18s %8d %10.4f %6.1f%%\n", n, calls[n], secs[n], 100*secs[n]/wall)
	}
}

// writeChrome writes each workload's spans as one process of a Chrome
// trace-event JSON file (complete events, microsecond timestamps),
// loadable in chrome://tracing or Perfetto.
func writeChrome(w io.Writer, names []string, traces [][]span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var events []event
	for p, spans := range traces {
		events = append(events, event{Name: "process_name", Ph: "M", Pid: p + 1, Tid: 1, Args: map[string]any{"name": names[p]}})
		for _, s := range spans {
			events = append(events, event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: p + 1, Tid: 1, Args: map[string]any{"id": s.id, "parent": s.parent}})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
