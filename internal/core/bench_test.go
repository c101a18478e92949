package core

import (
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/insert"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/oracle"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
	"sdpm/internal/workloads"
)

// benchInstances prepares the six workloads at their default
// configurations, outside any timer.
func benchInstances(b *testing.B) []*Instance {
	b.Helper()
	var ins []*Instance
	for _, w := range workloads.All() {
		cfg := DefaultConfig()
		cfg.Model = w.Model()
		cfg.CacheUnits = w.CacheUnits
		in, err := Prepare(w.Name, w.Program, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		ins = append(ins, in)
	}
	return ins
}

// simulateGroups splits the schemes as the repository benchmark's
// per-layer report does: the DRPM family (speed modulation) apart
// from Base and the spin-down schemes.
var simulateGroups = []struct {
	name    string
	schemes []Scheme
}{
	{"reactive", []Scheme{Base, TPM, ITPM, CMTPM}},
	{"drpm", []Scheme{DRPM, IDRPM, CMDRPM}},
}

// BenchmarkSimulate times the simulation stage alone: every scheme of
// a group over all six workloads per operation, with traces built,
// instrumented and compiled outside the timer. "bare" runs attach
// nothing; "observed" attaches one metrics collector and one
// default-capacity event log shared by every instance, as the serving
// layer attaches them, so the pair prices observation.
func BenchmarkSimulate(b *testing.B) {
	ins := benchInstances(b)
	for _, g := range simulateGroups {
		for _, mode := range []string{"bare", "observed"} {
			b.Run(g.name+"/"+mode, func(b *testing.B) {
				var coll *obs.Collector
				var log *events.Log
				if mode == "observed" {
					coll, log = obs.New(), events.NewLog(0)
				}
				run := func() int {
					reqs := 0
					for _, in := range ins {
						in.Obs, in.Events = coll, log
						for _, s := range g.schemes {
							res, err := in.Run(s)
							if err != nil {
								b.Fatal(err)
							}
							reqs += res.Requests
						}
					}
					return reqs
				}
				run() // memoize traces and compiled forms; warm the log
				b.ReportAllocs()
				b.ResetTimer()
				reqs := 0
				for i := 0; i < b.N; i++ {
					reqs = run()
				}
				b.ReportMetric(float64(reqs), "reqs/op")
			})
		}
	}
}

// BenchmarkCompile times trace compilation alone: trace.Compile over
// every trace the schemes simulate (the base trace and the TPM and
// DRPM instrumented traces) of all six workloads per operation, with
// the traces built and instrumented outside the timer.
func BenchmarkCompile(b *testing.B) {
	var trs []*trace.Trace
	nEvents := 0
	for _, in := range benchInstances(b) {
		trs = append(trs, in.BaseTrace())
		for _, mode := range []insert.Mode{insert.ModeTPM, insert.ModeDRPM} {
			tr, _, err := in.Instrumented(mode)
			if err != nil {
				b.Fatal(err)
			}
			trs = append(trs, tr)
		}
	}
	for _, tr := range trs {
		nEvents += len(tr.Events)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			benchCompiled = trace.Compile(tr)
		}
	}
	b.ReportMetric(float64(nEvents), "events/op")
}

var benchCompiled *trace.Compiled

// BenchmarkMispredictions times the Table 3 misprediction analysis of
// Instance.Mispredictions for all six workloads per operation. The
// base runs whose idle periods it scores, and the DRPM plans, are
// computed outside the timer.
func BenchmarkMispredictions(b *testing.B) {
	type input struct {
		plan  *insert.Plan
		idles [][]sim.IdlePeriod
		disk  disk.Params
	}
	var inputs []input
	for _, in := range benchInstances(b) {
		_, plan, err := in.Instrumented(insert.ModeDRPM)
		if err != nil {
			b.Fatal(err)
		}
		base, err := in.Run(Base)
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, input{plan, base.Idles, in.Cfg.Disk})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range inputs {
			st, err := oracle.Mispredictions(x.plan, x.idles, x.disk)
			if err != nil {
				b.Fatal(err)
			}
			benchMispredict = st
		}
	}
}

var benchMispredict oracle.MispredictStats
