package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"sdpm"
	"sdpm/internal/core"
	"sdpm/internal/experiments"
	"sdpm/internal/insert"
	"sdpm/internal/layout"
	"sdpm/internal/oracle"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
	"sdpm/internal/workloads"
)

// regenNominalS is about how long one sequential regeneration takes
// on a 2-core x86-64 box; a run regenerates seconds/regenNominalS
// times, so its size is fixed by --seconds, not by the machine's speed.
const regenNominalS = 4.0

// regenerate renders every experiment on s exactly as
// sdpm.RunExperiments("all", out, Options{Workers: 1}) does (one
// fresh suite, experiments in paper order, a blank line after each),
// unrolled so each experiment can be timed. ops receives each
// experiment's render time in ms; tr, when non-nil, gets one span per
// experiment.
func regenerate(s *experiments.Suite, ops *[]float64, tr *tracer) ([]byte, error) {
	var buf bytes.Buffer
	for _, id := range experiments.IDs() {
		t0 := time.Now()
		span := tr.begin("experiments."+id, "regen", 0)
		err := experiments.Render(s, id, &buf, "text")
		tr.end(span)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", id, err)
		}
		buf.WriteByte('\n')
		*ops = append(*ops, float64(time.Since(t0))/1e6)
	}
	return buf.Bytes(), nil
}

// regenFaultSeed is dpmexp's default -fault-seed, which the expected
// output was rendered with.
const regenFaultSeed = 1

// regenSetups is how many suites a run builds to time set-up; their
// build takes well under a millisecond, so one sample is noise.
const regenSetups = 51

// newRegenSuite builds what one regeneration starts from: the paper's
// default suite, run sequentially, with no collector and no event log
// (dpmexp's defaults apart from the worker count).
func newRegenSuite() *experiments.Suite {
	s := experiments.NewSuite()
	s.Workers = 1
	s.FaultSeed = regenFaultSeed
	return s
}

// firstDiff describes where got first departs from want.
func firstDiff(got, want []byte) string {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			line := bytes.Count(want[:i], []byte("\n")) + 1
			return fmt.Sprintf("first difference at byte %d (line %d)", i, line)
		}
	}
	return fmt.Sprintf("lengths differ: got %d bytes, want %d", len(got), len(want))
}

// golden is the expected output of a regeneration, relative to the
// repository root.
const golden = "results/experiments.txt"

func runRegen(seconds int, tr *tracer) (*report, error) {
	want, err := os.ReadFile(golden)
	if err != nil {
		return nil, fmt.Errorf("reading the expected output: %w", err)
	}
	if tr != nil {
		return traceRegen(want, tr)
	}
	n := max(2, int(math.Round(float64(seconds)/regenNominalS)))
	rep := newReport()
	var setups, walls, cpus, ops []float64
	for i := 0; i < regenSetups; i++ {
		t0 := time.Now()
		newRegenSuite()
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	heap := startHeapSampler()
	for i := 0; i < n; i++ {
		s := newRegenSuite()
		c0, t1 := cpuTime(), time.Now()
		out, err := regenerate(s, &ops, nil)
		wall := time.Since(t1)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		if bytes.Equal(out, want) {
			rep.tally.add(ok)
		} else {
			rep.tally.add(mismatch)
			rep.note("regeneration %d differs from the expected output: %s", i+1, firstDiff(out, want))
		}
	}
	peak := heap.finish()
	pct, _ := tailPercentile(len(ops))
	q1, _, q3 := quartiles(walls)
	rep.note("%d regenerations of %d experiments each; wall_s quartiles %.4f..%.4f", n, len(experiments.IDs()), q1, q3)
	rep.note("p50_ms and tail_ms are over the %d experiment renders; tail_ms is p%.1f; rps is renders per second of the median regeneration", len(ops), pct)
	rep.set("setup_s", median(setups), "s")
	rep.set("wall_s", median(walls), "s")
	rep.set("cpu_s", median(cpus), "s")
	rep.set("p50_ms", median(ops), "ms")
	rep.set("tail_ms", percentile(ops, pct), "ms")
	rep.set("rps", float64(len(experiments.IDs()))/median(walls), "1/s")
	rep.set("peak_heap_mb", peak, "MB")
	return rep, nil
}

// regenCell is one preparation regeneration makes, replayed layer by
// layer in the traced run.
type regenCell struct {
	label    string
	bench    *workloads.Benchmark
	cfg      core.Config
	version  core.Version // "" for the original program
	nestCost []float64    // the TL+DL tiler's per-nest request counts
	schemes  []core.Scheme
	oracle   bool // run the Table 3 misprediction analysis
}

// layerAcc accumulates the per-layer counts the spans cannot carry.
type layerAcc struct {
	sites       int
	powerCalls  int
	events      int // events in simulated traces
	batched     int // of which inside run-length compiled runs
	simRuns     int
	simRequests int
	simAllocs   uint64 // bytes allocated by simulation runs
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// simSpan names a scheme's simulation span: the DRPM family (speed
// modulation) apart from the reactive spin-down schemes and Base.
func simSpan(s core.Scheme) string {
	switch s {
	case core.DRPM, core.IDRPM, core.CMDRPM:
		return "sim.run.drpm"
	}
	return "sim.run.reactive"
}

// compile times the run-length compilation of one of in's traces.
func compile(in *core.Instance, t *trace.Trace, group string, parent int, tr *tracer) {
	tr.timed("trace.compile", group, parent, func() { in.Compiled(t) })
}

// schemeTrace returns the trace a scheme simulates on in (memoized by
// the instance, so this is cheap once the scheme has run).
func schemeTrace(in *core.Instance, s core.Scheme) (*trace.Trace, error) {
	switch s {
	case core.CMTPM:
		t, _, err := in.Instrumented(insert.ModeTPM)
		return t, err
	case core.CMDRPM:
		t, _, err := in.Instrumented(insert.ModeDRPM)
		return t, err
	}
	return in.BaseTrace(), nil
}

// runScheme times one simulation and records its work, its allocation,
// and how many of its events lie inside run-length compiled runs.
func runScheme(in *core.Instance, s core.Scheme, group string, parent int, tr *tracer, acc *layerAcc) (*sim.Result, error) {
	var (
		res *sim.Result
		err error
	)
	a0 := allocBytes()
	tr.timed(simSpan(s), group, parent, func() { res, err = in.Run(s) })
	acc.simAllocs += allocBytes() - a0
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", group, s, err)
	}
	acc.simRuns++
	acc.simRequests += res.Requests
	t, err := schemeTrace(in, s)
	if err != nil {
		return nil, err
	}
	c := in.Compiled(t)
	acc.events += c.NumEvents
	for _, r := range c.Runs {
		acc.batched += r.Count
	}
	return res, nil
}

// replayCell calls each layer in pipeline order for one cell:
// ApplyVersion, Prepare, BaseTrace, Instrumented, Compiled, Run per
// scheme, and the misprediction oracle.
func replayCell(c regenCell, tr *tracer, acc *layerAcc) (*core.Instance, error) {
	root := tr.begin("cell", c.label, 0)
	defer tr.end(root)
	prog, name := c.bench.Program, c.bench.Name
	var err error
	var overrides map[string]layout.Striping
	if c.version != "" {
		tr.timed("xform.apply", c.label, root, func() {
			prog, overrides, _, err = core.ApplyVersion(c.bench.Program, c.version, c.cfg, c.nestCost)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		name += "/" + string(c.version)
	}
	var in *core.Instance
	tr.timed("tracegen.sites", c.label, root, func() { in, err = core.Prepare(name, prog, c.cfg, overrides) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.label, err)
	}
	acc.sites += len(in.Sites)
	needBase, modes := false, map[insert.Mode]bool{}
	for _, s := range c.schemes {
		switch s {
		case core.CMTPM:
			modes[insert.ModeTPM] = true
		case core.CMDRPM:
			modes[insert.ModeDRPM] = true
		default:
			needBase = true
		}
	}
	if c.oracle {
		modes[insert.ModeDRPM] = true
	}
	if needBase {
		var base *trace.Trace
		tr.timed("tracegen.base_trace", c.label, root, func() { base = in.BaseTrace() })
		compile(in, base, c.label, root, tr)
	}
	var drpmPlan *insert.Plan
	for _, m := range []insert.Mode{insert.ModeTPM, insert.ModeDRPM} {
		if !modes[m] {
			continue
		}
		name := "insert.instrument_tpm"
		if m == insert.ModeDRPM {
			name = "insert.instrument_drpm"
		}
		var (
			t    *trace.Trace
			plan *insert.Plan
		)
		tr.timed(name, c.label, root, func() { t, plan, err = in.Instrumented(m) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		acc.powerCalls += plan.Ops
		if m == insert.ModeDRPM {
			drpmPlan = plan
		}
		compile(in, t, c.label, root, tr)
	}
	var base *sim.Result
	for _, s := range c.schemes {
		res, err := runScheme(in, s, c.label, root, tr, acc)
		if err != nil {
			return nil, err
		}
		if s == core.Base {
			base = res
		}
	}
	if c.oracle {
		if base == nil {
			return nil, fmt.Errorf("%s: the oracle needs a Base run", c.label)
		}
		tr.timed("oracle.mispredict", c.label, root, func() {
			_, err = oracle.Mispredictions(drpmPlan, base.Idles, c.cfg.Disk)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
	}
	return in, nil
}

// replayRegen replays the preparations regeneration makes: the six
// Table 2 workloads at Table 1 settings (all seven schemes and the
// Table 3 oracle), swim's stripe-size and stripe-factor sweeps, and
// every workload's Figure 13 code versions.
func replayRegen(tr *tracer, acc *layerAcc) error {
	suite := newRegenSuite()
	cfgFor := func(b *workloads.Benchmark) core.Config {
		cfg := suite.Cfg
		cfg.Model = b.Model()
		cfg.CacheUnits = b.CacheUnits
		return cfg
	}
	orig := make(map[string]*core.Instance)
	for _, b := range suite.Benchmarks {
		in, err := replayCell(regenCell{label: b.Name, bench: b, cfg: cfgFor(b), schemes: core.AllSchemes(), oracle: true}, tr, acc)
		if err != nil {
			return err
		}
		orig[b.Name] = in
	}
	sweep := []core.Scheme{core.Base, core.DRPM, core.IDRPM, core.CMDRPM}
	for _, b := range suite.Benchmarks {
		if b.Name != "swim" {
			continue
		}
		def := cfgFor(b)
		for _, u := range experiments.DefaultStripeSizes {
			if u == def.UnitBytes {
				continue // the Table 1 cell, shared through the memo
			}
			cfg := def
			cfg.UnitBytes = u
			if _, err := replayCell(regenCell{label: fmt.Sprintf("swim/unit=%dK", u>>10), bench: b, cfg: cfg, schemes: sweep}, tr, acc); err != nil {
				return err
			}
		}
		for _, f := range experiments.DefaultStripeFactors {
			if f == def.NumDisks {
				continue
			}
			cfg := def
			cfg.NumDisks = f
			if _, err := replayCell(regenCell{label: fmt.Sprintf("swim/disks=%d", f), bench: b, cfg: cfg, schemes: sweep}, tr, acc); err != nil {
				return err
			}
		}
	}
	for _, b := range suite.Benchmarks {
		for _, v := range core.AllVersions() {
			c := regenCell{label: b.Name + "/" + string(v), bench: b, cfg: cfgFor(b), version: v, schemes: []core.Scheme{core.CMTPM, core.CMDRPM}}
			if v == core.VTLDL {
				c.nestCost = orig[b.Name].NestRequests()
			}
			if _, err := replayCell(c, tr, acc); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceRegen is the traced regen run: the layer-by-layer replay, one
// regeneration with a span per experiment, and one untraced
// sdpm.RunExperiments regeneration to measure the tracing overhead.
func traceRegen(want []byte, tr *tracer) (*report, error) {
	rep := newTracedReport()
	var acc layerAcc
	t0 := time.Now()
	if err := replayRegen(tr, &acc); err != nil {
		return nil, err
	}
	replayWall := time.Since(t0)
	replaySpans := tr.snapshot()

	var untraced bytes.Buffer
	t1 := time.Now()
	if err := sdpm.RunExperiments("all", &untraced, sdpm.Options{Workers: 1, FaultSeed: regenFaultSeed}); err != nil {
		return nil, err
	}
	untracedWall := time.Since(t1)

	suite := newRegenSuite()
	suite.Cache = core.NewCache() // a memo we can count; no collector, so runs stay unobserved
	var ops []float64
	t2 := time.Now()
	traced, err := regenerate(suite, &ops, tr)
	if err != nil {
		return nil, err
	}
	tracedWall := time.Since(t2)
	for _, out := range [][]byte{untraced.Bytes(), traced} {
		if bytes.Equal(out, want) {
			rep.tally.add(ok)
		} else {
			rep.tally.add(mismatch)
			rep.note("a regeneration differs from the expected output: %s", firstDiff(out, want))
		}
	}

	layers := byName(replaySpans)
	var layerSelf time.Duration
	for name, st := range layers {
		if name != "cell" {
			layerSelf += st.self
		}
	}
	setLayerMetrics(rep, layers, acc)
	for name, st := range byName(tr.snapshot()[len(replaySpans):]) {
		rep.set(name+"_s", st.self.Seconds(), "s")
	}
	rep.set("core.cache_entries", float64(suite.Cache.Len()), "count")
	rep.set("tracing.overhead_share", tracedWall.Seconds()/untracedWall.Seconds()-1, "ratio")
	rep.set("regen.layer_self_s", layerSelf.Seconds(), "s")
	rep.set("regen.wall_s", untracedWall.Seconds(), "s")
	rep.note("replay of %d cells' layers: %.3f s wall, %.3f s summed layer self time (%.0f%% of one %.3f s regeneration)",
		layers["cell"].calls, replayWall.Seconds(), layerSelf.Seconds(), 100*layerSelf.Seconds()/untracedWall.Seconds(), untracedWall.Seconds())
	rep.note("tracing overhead: traced regeneration %.3f s vs untraced sdpm.RunExperiments %.3f s", tracedWall.Seconds(), untracedWall.Seconds())
	rep.note("not measured on regen: core.cache_hits/misses/waits (counting needs a collector, and regen attaches none); sim.bailouts and events.* (no event log); serve.* and client.* (no server)")
	checkRegenPredictions(rep, suite)
	return rep, nil
}

// checkRegenPredictions verifies what the workload is for: regen
// attaches neither the collector nor the event log, so neither layer
// can cost it anything.
func checkRegenPredictions(rep *report, s *experiments.Suite) {
	violations := 0
	if s.Obs != nil || s.Events != nil || s.Cache.Obs != nil || s.Cache.Events != nil {
		violations++
		rep.note("prediction violated: regen attached a collector or event log")
	}
	for _, name := range []string{"obs.collector_ms", "events.log_ms", "events.emitted"} {
		if rep.metrics[name].Value != 0 {
			violations++
			rep.note("prediction violated: %s is %g on regen", name, rep.metrics[name].Value)
		}
	}
	rep.set("checks.prediction_violations", float64(violations), "count")
}
