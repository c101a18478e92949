package core

import (
	"testing"

	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/workloads"
)

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
