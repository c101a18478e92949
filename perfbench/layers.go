package main

import (
	"sdpm/internal/experiments"
	"sdpm/internal/obs"
)

// layerMetrics lists every per-layer metric a traced run reports, with
// its unit. Each traced run reports all of them; a layer that does no
// work on a workload reports 0 there (README.md says which).
func layerMetrics() [][2]string {
	m := [][2]string{
		{"tracegen.sites_ms", "ms"},
		{"tracegen.sites", "count"},
		{"tracegen.base_trace_ms", "ms"},
		{"insert.instrument_tpm_ms", "ms"},
		{"insert.instrument_drpm_ms", "ms"},
		{"insert.power_calls", "count"},
		{"xform.apply_ms", "ms"},
		{"trace.compile_ms", "ms"},
		{"trace.batched_share", "ratio"},
		{"sim.run_ms.reactive", "ms"},
		{"sim.run_ms.drpm", "ms"},
		{"sim.requests_per_s", "1/s"},
		{"sim.alloc_kb_per_run", "KB"},
		{"sim.bailouts", "count"},
		{"oracle.mispredict_ms", "ms"},
		{"obs.collector_ms", "ms"},
		{"events.log_ms", "ms"},
		{"events.emitted", "count"},
		{"core.cache_hits", "count"},
		{"core.cache_misses", "count"},
		{"core.cache_waits", "count"},
		{"core.cache_hit_share", "ratio"},
		{"core.cache_entries", "count"},
	}
	for _, id := range experiments.IDs() {
		m = append(m, [2]string{"experiments." + id + "_s", "s"})
	}
	return append(m, [][2]string{
		{"serve.queue_wait_p50_ms", "ms"},
		{"serve.queue_wait_p99_ms", "ms"},
		{"serve.shed", "count"},
		{"serve.self_ms", "ms"},
		{"client.attempts", "count"},
		{"client.retries", "count"},
		{"client.digest_mismatches", "count"},
		{"tracing.overhead_share", "ratio"},
		{"regen.layer_self_s", "s"},
		{"regen.wall_s", "s"},
		{"checks.prediction_violations", "count"},
	}...)
}

// endToEndMetrics lists the metrics an untraced run reports, with
// their units.
func endToEndMetrics() [][2]string {
	return [][2]string{
		{"setup_s", "s"},
		{"wall_s", "s"},
		{"cpu_s", "s"},
		{"p50_ms", "ms"},
		{"tail_ms", "ms"},
		{"rps", "1/s"},
		{"peak_heap_mb", "MB"},
	}
}

// newTracedReport returns a report with every per-layer metric at 0.
func newTracedReport() *report {
	r := newReport()
	for _, m := range layerMetrics() {
		r.set(m[0], 0, m[1])
	}
	return r
}

// setLayerMetrics fills the pipeline layers' metrics from their spans
// (mean self time per call) and the counts gathered beside them.
func setLayerMetrics(r *report, layers map[string]layerStat, acc layerAcc) {
	for metricName, spanName := range map[string]string{
		"tracegen.sites_ms":         "tracegen.sites",
		"tracegen.base_trace_ms":    "tracegen.base_trace",
		"insert.instrument_tpm_ms":  "insert.instrument_tpm",
		"insert.instrument_drpm_ms": "insert.instrument_drpm",
		"xform.apply_ms":            "xform.apply",
		"trace.compile_ms":          "trace.compile",
		"sim.run_ms.reactive":       "sim.run.reactive",
		"sim.run_ms.drpm":           "sim.run.drpm",
		"oracle.mispredict_ms":      "oracle.mispredict",
	} {
		r.set(metricName, layers[spanName].meanMS(), r.metrics[metricName].Unit)
	}
	r.set("tracegen.sites", float64(acc.sites), "count")
	r.set("insert.power_calls", float64(acc.powerCalls), "count")
	if acc.events > 0 {
		r.set("trace.batched_share", float64(acc.batched)/float64(acc.events), "ratio")
	}
	if simS := (layers["sim.run.reactive"].self + layers["sim.run.drpm"].self).Seconds(); simS > 0 {
		r.set("sim.requests_per_s", float64(acc.simRequests)/simS, "1/s")
	}
	if acc.simRuns > 0 {
		r.set("sim.alloc_kb_per_run", float64(acc.simAllocs)/float64(acc.simRuns)/1024, "KB")
	}
}

// histQuantile estimates quantile q (0..1) of the observations a
// histogram gained between two snapshots, interpolating linearly
// inside the bucket that holds it. Observations in the overflow
// bucket report the last finite bound.
func histQuantile(before, after obs.HistogramSnapshot, q float64) float64 {
	bounds := obs.BucketBoundsMS()
	var counts []int64
	var total int64
	for i := range after.Buckets {
		c := after.Buckets[i] - before.Buckets[i]
		counts = append(counts, c)
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}
