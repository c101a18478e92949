package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"sdpm/internal/client"
	"sdpm/internal/obs"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{0.5, 9.25, 3.0, 7.5, 1.25, 4.0}, 1.0625, 3.5, 7.9375},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{11, 9, true},     // only the lowest sample has ten above it
		{210, 95.2, true}, // rank 200 of 210
		{1000, 99, true},
		{5000, 99, true}, // capped at p99
	} {
		got, ok := tailPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = %v %v, want %v %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
	// Whatever the count, at least minBeyond samples lie above the value.
	for n := 11; n < 3000; n += 7 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		pct, _ := tailPercentile(n)
		v := percentile(xs, pct)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Fatalf("n=%d: p%.1f leaves %d samples above it", n, pct, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ pct, want float64 }{{20, 10}, {21, 20}, {50, 30}, {100, 50}, {0, 10}} {
		if got := percentile(xs, tc.pct); got != tc.want {
			t.Errorf("percentile(p%v) = %v, want %v", tc.pct, got, tc.want)
		}
	}
}

func TestClassify(t *testing.T) {
	api := &client.APIError{Status: 503, Kind: "unavailable"}
	for _, tc := range []struct {
		err  error
		want outcome
	}{
		{nil, ok},
		{api, httpErr},
		{&client.ExhaustedError{Attempts: 5, Last: api}, httpErr},
		{fmt.Errorf("sim: %w", api), httpErr},
		{&client.DigestError{Want: "a", Got: "b"}, clientErr},
		{&client.BreakerOpenError{}, clientErr},
		{errors.New("connection refused"), clientErr},
	} {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestTallyFailedShare(t *testing.T) {
	var tl tally
	if tl.failedShare() != 0 {
		t.Fatal("empty tally has a failed share")
	}
	for _, o := range []outcome{ok, ok, ok, ok, ok, clientErr, httpErr, ok} {
		tl.add(o)
	}
	// A later check finds one counted success wrong.
	tl.reclassify(mismatch)
	if tl.attempted != 8 || tl.failed() != 3 {
		t.Fatalf("attempted %d failed %d, want 8 and 3", tl.attempted, tl.failed())
	}
	if got := tl.failedShare(); got != 3.0/8 {
		t.Errorf("failedShare = %v, want 0.375", got)
	}
	if tl.byKind[clientErr] != 1 || tl.byKind[httpErr] != 1 || tl.byKind[mismatch] != 1 || tl.byKind[ok] != 5 {
		t.Errorf("by kind = %v", tl.byKind)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "prepare", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "run", Start: ms(20), End: ms(50)},   // overlaps 2: counted once
		{ID: 4, Parent: 3, Name: "inner", Start: ms(25), End: ms(35)}, // grandchild: only 3 loses it
		{ID: 5, Parent: 1, Name: "late", Start: ms(90), End: ms(120)}, // clipped to the parent's end
		{ID: 6, Name: "open", Start: ms(5), End: -1},
	}
	got := selfTimes(spans)
	want := []time.Duration{ms(100 - 40 - 10), ms(20), ms(30 - 10), ms(10), ms(30), 0}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s self = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	layers := byName(append(spans, span{ID: 7, Name: "prepare", Start: ms(200), End: ms(210)}))
	if st := layers["prepare"]; st.calls != 2 || st.self != ms(30) || st.meanMS() != 15 {
		t.Errorf("prepare aggregate = %+v (mean %v ms)", st, st.meanMS())
	}
	if (layerStat{}).meanMS() != 0 {
		t.Error("an uncalled layer has a mean")
	}
}

func TestTracerRecordsNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", "req-0", 0)
	child := tr.timed("sim.run.drpm", "req-0", root, func() { time.Sleep(time.Millisecond) })
	tr.rename(child, "sim.run.reactive")
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Name != "sim.run.reactive" || s[1].End < s[1].Start+time.Millisecond {
		t.Fatalf("spans = %+v", s)
	}
	var none *tracer
	if id := none.timed("x", "g", 0, func() {}); id != 0 {
		t.Error("a nil tracer recorded a span")
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := obs.BucketBoundsMS()
	var before, after obs.HistogramSnapshot
	before.Buckets[0] = 7 // observations before the interval do not count
	after.Buckets[0] = 7
	after.Buckets[1] = 10
	after.Buckets[len(bounds)] = 1 // overflow
	if got, want := histQuantile(before, after, 0.5), bounds[0]+(bounds[1]-bounds[0])*5.5/10; got != want {
		t.Errorf("p50 = %v, want %v", got, want)
	}
	if got := histQuantile(before, after, 1); got != bounds[len(bounds)-1] {
		t.Errorf("p100 = %v, want the last bound %v", got, bounds[len(bounds)-1])
	}
	if got := histQuantile(after, after, 0.5); got != 0 {
		t.Errorf("empty interval p50 = %v, want 0", got)
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// metrics the runs print in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want [][2]string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the runs print %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics())
	check("per_layer", b.PerLayer, layerMetrics())
}
