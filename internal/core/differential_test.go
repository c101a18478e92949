package core

import (
	"bytes"
	"reflect"
	"testing"

	"sdpm/internal/faults"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/sim"
	"sdpm/internal/workloads"
)

// TestWorkloadBatchDifferential runs the paper's six workloads under
// every scheme, fault-free and under light fault injection, through
// the batched executor (with the memoized compiled form Run passes)
// and through the general per-request path. Each run has its own
// collector and event log. Results must be identical to the last bit,
// collector expositions byte for byte, and event logs event for event
// once the batched path's bail-out records (which the general path
// has no occasion to emit) and the seqs they shift are set aside.
// The workloads run as parallel subtests.
func TestWorkloadBatchDifferential(t *testing.T) {
	light, err := faults.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkWorkloadBatchDifferential(t, name, light)
		})
	}
}

func checkWorkloadBatchDifferential(t *testing.T, name string, light faults.Config) {
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range []faults.Config{{}, light} {
		cfg := DefaultConfig()
		cfg.Model = b.Model()
		cfg.CacheUnits = b.CacheUnits
		cfg.Faults = fc
		cfg.FaultSeed = 1
		in, err := Prepare(name, b.Program, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range AllSchemes() {
			batched := diffRun(t, in, s, false)
			general := diffRun(t, in, s, true)
			where := name + "/" + string(s)
			if fc != (faults.Config{}) {
				where += "/light"
			}
			if !reflect.DeepEqual(batched.res, general.res) {
				t.Errorf("%s: results differ: ExecMS %v vs %v, EnergyJ %v vs %v", where,
					batched.res.ExecMS, general.res.ExecMS, batched.res.EnergyJ, general.res.EnergyJ)
			}
			if batched.metrics != general.metrics {
				t.Errorf("%s: collector metrics differ", where)
			}
			if !reflect.DeepEqual(batched.events, general.events) {
				t.Errorf("%s: event logs differ (%d vs %d events)", where, len(batched.events), len(general.events))
			}
		}
	}
}

type diffOutput struct {
	res     *sim.Result
	metrics string
	events  []events.Event
}

// diffRun simulates scheme s as Run does, with a fresh collector and
// event log attached, optionally forcing the general path. It returns
// the result, the collector's exposition, and the log's events minus
// bail-outs, with seqs cleared.
func diffRun(t *testing.T, in *Instance, s Scheme, general bool) diffOutput {
	t.Helper()
	tr, cfg, err := in.runInput(s)
	if err != nil {
		t.Fatal(err)
	}
	if general {
		cfg.Compiled = nil
		cfg.DisableBatch = true
	}
	cfg.Obs = obs.New()
	// The largest run (wupwise under IDRPM with bail-outs) logs about
	// 70k events; the ring must hold every one.
	cfg.Events = events.NewLog(1 << 17)
	res, err := sim.Run(tr, cfg)
	if err != nil {
		t.Fatalf("%s/%s: %v", in.Name, s, err)
	}
	if n := cfg.Events.Dropped(); n > 0 {
		t.Fatalf("%s/%s: event ring dropped %d events; the comparison needs the whole log", in.Name, s, n)
	}
	var prom bytes.Buffer
	if err := obs.WritePrometheus(&prom, cfg.Obs); err != nil {
		t.Fatal(err)
	}
	var evs []events.Event
	for _, ev := range cfg.Events.Events() {
		if ev.Kind == events.KindBailout {
			continue
		}
		ev.Seq = 0
		evs = append(evs, ev)
	}
	return diffOutput{res: res, metrics: prom.String(), events: evs}
}
