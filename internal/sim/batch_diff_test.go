package sim_test

// Differential property test for the batched steady-state executor:
// on randomized traces — varying disk counts, request mixes, gaps,
// embedded power ops, policies, and fault plans — the batched and the
// general per-request paths must produce identical Results, down to
// the last bit of every float, and identical metrics in an attached
// collector. Any divergence is a correctness bug in the batching fast
// path, never acceptable drift. The test runs under `make race`
// (internal/sim is in the race list).

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/policy"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
)

// randomBatchTrace generates a trace alternating steady stretches (the
// compiled runs the fast path batches) with jittered stretches and
// embedded power ops (the bail-out cases).
func randomBatchTrace(r *rand.Rand, nDisks int) *trace.Trace {
	tr := &trace.Trace{Program: "diff", NumDisks: nDisks}
	arrival := 0.0
	sizes := []int64{4096, 65536, 262144}
	block := int64(0)
	addReq := func(d int, gap float64, bytes int64) {
		arrival += gap
		kind := trace.Read
		if r.Intn(4) == 0 {
			kind = trace.Write
		}
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.EvRequest,
			GapMS: gap,
			Req: trace.Request{
				ArrivalMS: arrival, Disk: d, Block: block % (1 << 20),
				Bytes: bytes, Kind: kind,
			},
		})
		block += bytes / 512
	}
	p := disk.DefaultParams()
	for len(tr.Events) < 2500 {
		switch r.Intn(5) {
		case 0, 1: // steady stretch: uniform gap and size
			n := 4 + r.Intn(120)
			gap := []float64{0, 2, 7.5, 60, 300}[r.Intn(5)]
			bytes := sizes[r.Intn(len(sizes))]
			roundRobin := r.Intn(2) == 0
			d := r.Intn(nDisks)
			for i := 0; i < n; i++ {
				if roundRobin {
					d = i % nDisks
				}
				addReq(d, gap, bytes)
			}
		case 2: // jittered stretch
			n := 1 + r.Intn(30)
			for i := 0; i < n; i++ {
				addReq(r.Intn(nDisks), r.Float64()*40, sizes[r.Intn(len(sizes))])
			}
		case 3: // long-idle stretch (policy decision territory)
			n := 4 + r.Intn(10)
			for i := 0; i < n; i++ {
				addReq(r.Intn(nDisks), 1000+r.Float64()*14000, 65536)
			}
		case 4: // embedded power op
			d := r.Intn(nDisks)
			op := trace.PowerOp{Disk: d}
			switch r.Intn(3) {
			case 0:
				op.Kind = trace.OpSpinDown
			case 1:
				op.Kind = trace.OpSpinUp
			default:
				op.Kind = trace.OpSetRPM
				op.RPM = p.MinRPM + r.Intn(p.NumLevels())*p.RPMStep
				op.PredictedIdleMS = r.Float64() * 5000
			}
			tr.Events = append(tr.Events, trace.Event{
				Kind: trace.EvPowerOp, GapMS: r.Float64() * 5, Op: op,
			})
		}
	}
	return tr
}

// diffPolicy builds one fresh policy per name; fresh instances per
// run keep the stateful controllers (DRPM's window) independent.
func diffPolicy(name string, p disk.Params, nDisks int) sim.Policy {
	switch name {
	case "none":
		return nil
	case "base":
		return policy.NewBase()
	case "tpm":
		return policy.NewTPM(p, 0)
	case "itpm":
		return policy.NewITPM(p)
	case "drpm":
		return policy.NewDRPM(p, nDisks)
	case "idrpm":
		return policy.NewIDRPM(p)
	}
	panic("unknown policy " + name)
}

// TestBatchDifferential is the batched-vs-general equivalence sweep.
func TestBatchDifferential(t *testing.T) {
	p := disk.DefaultParams()
	moderate, err := faults.ParseSpec("moderate")
	if err != nil {
		t.Fatal(err)
	}
	policies := []string{"none", "base", "tpm", "itpm", "drpm", "idrpm"}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			nDisks := 1 + r.Intn(4)
			tr := randomBatchTrace(r, nDisks)
			comp := trace.Compile(tr)
			if len(comp.Runs) == 0 {
				t.Fatal("generated trace compiled to zero runs; the sweep would not exercise the fast path")
			}
			for _, pol := range policies {
				for _, withFaults := range []bool{false, true} {
					cfg := sim.Config{
						Disk:                p,
						PowerCallOverheadMS: sim.DefaultPowerCallOverheadMS,
						// Timeline + audit on every other seed: the audit
						// re-derives energy from the timeline, so a fast
						// path that drifted would fail twice over.
						RecordTimeline: seed%2 == 0,
						Audit:          seed%2 == 0,
						IgnorePowerOps: seed%3 == 0,
					}
					if withFaults {
						plan, err := faults.New(seed, nDisks, moderate)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Faults = plan
					}
					// Each path gets its own collector; their expositions
					// must match byte for byte.
					batched := cfg
					batched.Policy = diffPolicy(pol, p, nDisks)
					batched.Compiled = comp
					batched.Obs = obs.New()
					want := cfg
					want.Policy = diffPolicy(pol, p, nDisks)
					want.DisableBatch = true
					want.Obs = obs.New()
					// Event tracing attached to the batched path must
					// change no result bit (the log only reads state).
					traced := cfg
					traced.Policy = diffPolicy(pol, p, nDisks)
					traced.Compiled = comp
					traced.Events = events.NewLog(1 << 16)

					rb, errB := sim.Run(tr, batched)
					rg, errG := sim.Run(tr, want)
					rt, errT := sim.Run(tr, traced)
					if (errB == nil) != (errG == nil) || (errB == nil) != (errT == nil) {
						t.Fatalf("policy %s faults=%t: batched err=%v, general err=%v, traced err=%v", pol, withFaults, errB, errG, errT)
					}
					if errB != nil {
						continue
					}
					if !reflect.DeepEqual(rb, rt) {
						t.Errorf("policy %s faults=%t: event tracing perturbed the batched result", pol, withFaults)
					}
					if mb, mg := promText(t, batched.Obs), promText(t, want.Obs); mb != mg {
						t.Errorf("policy %s faults=%t: batched and general collector metrics differ:\n%s\nvs\n%s", pol, withFaults, mb, mg)
					}
					if !reflect.DeepEqual(rb, rg) {
						t.Errorf("policy %s faults=%t: batched and general results differ", pol, withFaults)
						if rb.EnergyJ != rg.EnergyJ {
							t.Errorf("  EnergyJ %v vs %v", rb.EnergyJ, rg.EnergyJ)
						}
						if rb.ExecMS != rg.ExecMS {
							t.Errorf("  ExecMS %v vs %v", rb.ExecMS, rg.ExecMS)
						}
						if rb.TotalWaitMS != rg.TotalWaitMS {
							t.Errorf("  TotalWaitMS %v vs %v", rb.TotalWaitMS, rg.TotalWaitMS)
						}
					}
				}
			}
		})
	}
}

// promText renders c's Prometheus exposition.
func promText(t *testing.T, c *obs.Collector) string {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WritePrometheus(&b, c); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCompiledForOtherTrace passes Run a compiled form built from a
// different trace of the same length. Run must ignore it and simulate
// the trace it was given, exactly as with no compiled form: neither
// reuse the other trace's runs (a wrong result when only the gaps
// differ) nor its per-disk counts and validation (an index past the
// machine's disks when the disk count differs).
func TestCompiledForOtherTrace(t *testing.T) {
	p := disk.DefaultParams()
	comp := trace.Compile(hotTrace(8, 1000, 2.0))
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"other-gaps", hotTrace(8, 1000, 7.0)},
		{"fewer-disks", hotTrace(1, 1000, 2.0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := sim.Run(tc.tr, sim.Config{Disk: p})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(tc.tr, sim.Config{Disk: p, Compiled: comp})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ExecMS %v, EnergyJ %v with the other trace's compiled form; want %v, %v",
					got.ExecMS, got.EnergyJ, want.ExecMS, want.EnergyJ)
			}
		})
	}
}

// TestRecordIdlesUnobservable checks that idle-period recording is
// opt-in and changes nothing else: on random traces under every
// policy, with and without faults, batched and general, closed and
// open loop, a run with RecordIdles set returns the result of the
// same run without it plus the idle periods, and the batched path
// records exactly the general path's periods: one per request on each
// disk plus the trailing one.
func TestRecordIdlesUnobservable(t *testing.T) {
	p := disk.DefaultParams()
	moderate, err := faults.ParseSpec("moderate")
	if err != nil {
		t.Fatal(err)
	}
	policies := []string{"none", "base", "tpm", "itpm", "drpm", "idrpm"}
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		nDisks := 1 + r.Intn(4)
		tr := randomBatchTrace(r, nDisks)
		comp := trace.Compile(tr)
		perDisk := tr.PerDiskRequests()
		for _, pol := range policies {
			for _, withFaults := range []bool{false, true} {
				var recorded [][]sim.IdlePeriod
				for _, mode := range []string{"batched", "general", "open"} {
					where := fmt.Sprintf("seed%d/%s/faults=%t/%s", seed, pol, withFaults, mode)
					cfg := sim.Config{Disk: p, PowerCallOverheadMS: sim.DefaultPowerCallOverheadMS, Audit: seed%2 == 0}
					if withFaults {
						if cfg.Faults, err = faults.New(seed, nDisks, moderate); err != nil {
							t.Fatal(err)
						}
					}
					run := func(record bool) *sim.Result {
						c := cfg
						c.Policy = diffPolicy(pol, p, nDisks)
						c.RecordIdles = record
						var res *sim.Result
						var err error
						switch mode {
						case "batched":
							c.Compiled = comp
							res, err = sim.Run(tr, c)
						case "general":
							c.DisableBatch = true
							res, err = sim.Run(tr, c)
						default:
							res, err = sim.RunOpenLoop(tr, c)
						}
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						return res
					}
					off, on := run(false), run(true)
					if off.Idles != nil {
						t.Errorf("%s: idle periods returned without RecordIdles", where)
					}
					if len(on.Idles) != nDisks {
						t.Fatalf("%s: %d idle-period lists, want %d", where, len(on.Idles), nDisks)
					}
					for d, idles := range on.Idles {
						if len(idles) != perDisk[d]+1 {
							t.Errorf("%s: disk %d has %d idle periods, want %d", where, d, len(idles), perDisk[d]+1)
						}
					}
					switch mode {
					case "batched":
						recorded = on.Idles
					case "general":
						if !reflect.DeepEqual(on.Idles, recorded) {
							t.Errorf("%s: batched and general paths record different idle periods", where)
						}
					}
					on.Idles = nil
					if !reflect.DeepEqual(on, off) {
						t.Errorf("%s: RecordIdles changed the result", where)
					}
				}
			}
		}
	}
}
