package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{nil, 0, 0, 0},
		{[]float64{4}, 4, 4, 4},
		// Reference values from Python's statistics.quantiles(xs, n=4).
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{7.5, 2.25, 10, 4}, 5.75, 2.6875, 9.375},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 4, 2, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v q1 %v q3 %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "pass", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "leaf", parent: 1, start: 20, end: 30},
		{name: "b", parent: 0, start: 35, end: 60},  // overlaps a: the union counts once
		{name: "b", parent: 0, start: 90, end: 120}, // runs past the root: clipped
		{name: "other", parent: -1, start: 200, end: 250},
	}
	self := selfTimes(spans)
	// pass: 100 − |[10,60] ∪ [90,100]| = 100 − 60.
	if want := []int64{40, 20, 10, 25, 30, 50}; !slices.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	secs, calls := layerTimes(spans, self, 0)
	ns := func(name string) int64 { return int64(math.Round(secs[name] * 1e9)) }
	if ns("a") != 20 || ns("leaf") != 10 || ns("b") != 55 || calls["b"] != 2 {
		t.Errorf("layer times %v calls %v", secs, calls)
	}
	if _, ok := secs["other"]; ok {
		t.Error("a span outside the root was attributed to it")
	}
}

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesEmittedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if b.RunSeconds < 1 || b.RunSeconds > 60 || !slices.Equal(b.Paths, []string{"bench"}) {
		t.Errorf("run_seconds %d paths %v", b.RunSeconds, b.Paths)
	}
	var wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
	}
	if !slices.Equal(wl, workloadNames()) {
		t.Errorf("workloads %v, the command runs %v", wl, workloadNames())
	}

	// The untraced run emits exactly the end-to-end metrics.
	res := newRunResult("w", 99)
	res.addEndToEnd([]float64{0.1}, launched{mb: 1, passes: []passRecord{{WallS: 2, CPUS: 2}, {WallS: 1, CPUS: 2}}})
	var declared []metric
	for _, m := range b.EndToEnd {
		declared = append(declared, metric{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	checkDeclared(t, "end_to_end", declared, endToEnd, res.metrics, 16, nameRE, unitRE)
	if !slices.Contains(declared, metric{"setup_s", "s", "lower"}) {
		t.Error("end_to_end lacks setup_s in s, lower better")
	}

	declared = nil
	for _, m := range b.PerLayer {
		declared = append(declared, metric{m.Name, m.Unit, m.Better})
	}
	checkDeclared(t, "per_layer", declared, perLayer, nil, 128, nameRE, unitRE)
}

// checkDeclared compares BENCHMARK.json's list with the command's, and
// the command's with the metrics a run emitted (when given).
func checkDeclared(t *testing.T, list string, declared, defs []metric, emitted map[string]float64, limit int, nameRE, unitRE *regexp.Regexp) {
	t.Helper()
	if !slices.Equal(declared, defs) {
		t.Errorf("%s in BENCHMARK.json %v, the command emits %v", list, declared, defs)
	}
	if len(defs) < 1 || len(defs) > limit {
		t.Errorf("%s has %d metrics, want 1..%d", list, len(defs), limit)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || (d.better != "higher" && d.better != "lower") || seen[d.name] {
			t.Errorf("%s: bad metric %+v", list, d)
		}
		seen[d.name] = true
		if _, ok := emitted[d.name]; emitted != nil && !ok {
			t.Errorf("%s: a run does not emit %s", list, d.name)
		}
	}
	if emitted != nil && len(emitted) != len(defs) {
		t.Errorf("%s: a run emits %d metrics, declared %d", list, len(emitted), len(defs))
	}
}

// TestWorkloadsSmoke runs every workload at a tiny corpus size through
// one traced cycle: untraced passes at one and two workers, the traced
// replay, and the probes.  Every check must pass and every per-layer
// metric must be emitted.  Seed 99 has no committed report digest (the
// committed ones are for full-size corpora).
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			w, err := prepare(name, 99, 0.02)
			if err != nil {
				t.Fatal(err)
			}
			res, spans := traced(w, newRunResult(name, 99), 0)
			if res.checks.failed != 0 || res.checks.attempted != 3 {
				t.Fatalf("checks: %d of %d failed", res.checks.failed, res.checks.attempted)
			}
			if len(spans) == 0 || spans[0].name != "pass" {
				t.Fatalf("no pass span recorded")
			}
			for _, d := range perLayer {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("missing per-layer metric %s", d.name)
				}
			}
			if len(res.metrics) != len(perLayer) {
				t.Errorf("emitted %d per-layer metrics, declared %d", len(res.metrics), len(perLayer))
			}
			if res.metrics["sim.walks"] < 1 || res.metrics["corpus.generate_s"] <= 0 {
				t.Errorf("walks %v generate_s %v", res.metrics["sim.walks"], res.metrics["corpus.generate_s"])
			}
		})
	}
}
