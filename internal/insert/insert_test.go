package insert

import (
	"math"
	"math/rand"
	"testing"

	"sdpm/internal/cycles"
	"sdpm/internal/disk"
	"sdpm/internal/policy"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
)

// testFiles is the file table of the test sites, all in file 0.
var testFiles = []string{"u"}

// rrSites builds n round-robin 64KB request sites over nd disks with
// the given compute think time between requests.
func rrSites(nd, n int, thinkMS float64) []tracegen.Site {
	m := cycles.New(cycles.DefaultClockHz, 0, 0)
	thinkCyc := m.CyclesForMS(thinkMS)
	out := make([]tracegen.Site, n)
	for i := range out {
		out[i] = tracegen.Site{
			Nest: 0, Iter: int64(i),
			Unit: int64(i),
			Disk: i % nd, Block: int64(i/nd) * 128, Bytes: 65536,
			Kind:     trace.Read,
			CyclePos: int64(i) * thinkCyc,
		}
	}
	return out
}

// burstSites sends perBurst consecutive requests to each disk in
// turn, giving each disk long idle stretches.
func burstSites(nd, perBurst int, thinkMS float64) []tracegen.Site {
	m := cycles.New(cycles.DefaultClockHz, 0, 0)
	thinkCyc := m.CyclesForMS(thinkMS)
	var out []tracegen.Site
	i := 0
	for d := 0; d < nd; d++ {
		for k := 0; k < perBurst; k++ {
			out = append(out, tracegen.Site{
				Nest: d, Iter: int64(k), Unit: int64(i),
				Disk: d, Block: int64(k) * 128, Bytes: 65536,
				Kind: trace.Read, CyclePos: int64(i) * thinkCyc,
			})
			i++
		}
	}
	return out
}

func baseTrace(nd int, ss []tracegen.Site, m *cycles.Model, p disk.Params) *trace.Trace {
	return tracegen.FromSites("t", testFiles, nd, ss, tracegen.Options{
		Model:            m,
		NominalServiceMS: func(b int64) float64 { return p.ServiceTimeMS(p.MaxRPM, b) },
	})
}

func TestCMDRPMCloseToOracleNoJitter(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 1)
	ss := rrSites(8, 2000, 3.44)

	tr, plan, err := Instrument("rr", testFiles, 8, ss, Options{Mode: ModeDRPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.Ops == 0 {
		t.Fatal("no ops inserted")
	}
	cm, err := sim.Run(tr, sim.Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	bt := baseTrace(8, ss, m, p)
	base, _ := sim.Run(bt, sim.Config{Disk: p})
	oracle, _ := sim.Run(bt, sim.Config{Disk: p, Policy: policy.NewIDRPM(p)})

	// Energy: CMDRPM must land close to the oracle and far below base.
	if cm.EnergyJ > base.EnergyJ*0.7 {
		t.Errorf("CMDRPM saves too little: %.0f vs base %.0f", cm.EnergyJ, base.EnergyJ)
	}
	if cm.EnergyJ < oracle.EnergyJ*0.98 {
		t.Errorf("CMDRPM beats the oracle: %.0f vs %.0f", cm.EnergyJ, oracle.EnergyJ)
	}
	if cm.EnergyJ > oracle.EnergyJ*1.15 {
		t.Errorf("CMDRPM too far from oracle: %.0f vs %.0f", cm.EnergyJ, oracle.EnergyJ)
	}
	// Execution time: near-zero penalty (power-call overheads only).
	penalty := cm.ExecMS/base.ExecMS - 1
	if penalty > 0.02 {
		t.Errorf("CMDRPM penalty %.2f%%", penalty*100)
	}
	if cm.TotalWaitMS > base.ExecMS*0.001 {
		t.Errorf("CMDRPM wait %.1fms", cm.TotalWaitMS)
	}
}

func TestCMDRPMWithJitterStillNearOracle(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 20, 7)
	ss := rrSites(8, 2000, 3.44)
	tr, _, err := Instrument("rr", testFiles, 8, ss, Options{Mode: ModeDRPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := sim.Run(tr, sim.Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	bt := baseTrace(8, ss, m, p)
	base, _ := sim.Run(bt, sim.Config{Disk: p})
	penalty := cm.ExecMS/base.ExecMS - 1
	if penalty > 0.05 {
		t.Errorf("CMDRPM penalty with jitter %.2f%%", penalty*100)
	}
	if cm.EnergyJ > base.EnergyJ*0.75 {
		t.Errorf("CMDRPM with jitter saves too little: %.0f vs %.0f", cm.EnergyJ, base.EnergyJ)
	}
}

func TestCMTPMNoOpsOnShortGaps(t *testing.T) {
	p := disk.DefaultParams()
	ss := rrSites(8, 500, 3.44)
	tr, plan, err := Instrument("rr", testFiles, 8, ss, Options{Mode: ModeTPM, Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	// 73ms gaps are far below the TPM break-even; only trailing gaps
	// could possibly qualify, and at ~70ms they do not.
	if plan.Ops != 0 {
		t.Errorf("CMTPM inserted %d ops on short gaps", plan.Ops)
	}
	if tr.NumPowerOps() != 0 {
		t.Error("trace contains ops")
	}
}

func TestCMTPMSavesOnBurstsWithoutPenalty(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 3)
	ss := burstSites(4, 3000, 10) // 30s bursts per disk
	tr, plan, err := Instrument("burst", testFiles, 4, ss, Options{Mode: ModeTPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Ops == 0 {
		t.Fatal("CMTPM inserted nothing on long gaps")
	}
	cm, err := sim.Run(tr, sim.Config{Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	bt := baseTrace(4, ss, m, p)
	base, _ := sim.Run(bt, sim.Config{Disk: p})
	rtpm, _ := sim.Run(bt, sim.Config{Disk: p, Policy: policy.NewTPM(p, 0)})

	if cm.EnergyJ >= base.EnergyJ {
		t.Errorf("CMTPM saved nothing: %.0f vs %.0f", cm.EnergyJ, base.EnergyJ)
	}
	// Proactive TPM must beat reactive TPM on both axes.
	if cm.EnergyJ >= rtpm.EnergyJ {
		t.Errorf("CMTPM %.0f not better than reactive TPM %.0f", cm.EnergyJ, rtpm.EnergyJ)
	}
	if cm.ExecMS >= rtpm.ExecMS {
		t.Errorf("CMTPM exec %.0f not better than reactive TPM %.0f", cm.ExecMS, rtpm.ExecMS)
	}
	penalty := cm.ExecMS/base.ExecMS - 1
	if penalty > 0.02 {
		t.Errorf("CMTPM penalty %.2f%%", penalty*100)
	}
}

func TestPreactivationAblation(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 3)
	ss := burstSites(4, 2000, 10)
	on, _, err := Instrument("b", testFiles, 4, ss, Options{Mode: ModeTPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	off, _, err := Instrument("b", testFiles, 4, ss, Options{Mode: ModeTPM, Disk: p, Model: m, DisablePreactivation: true})
	if err != nil {
		t.Fatal(err)
	}
	ron, _ := sim.Run(on, sim.Config{Disk: p})
	roff, _ := sim.Run(off, sim.Config{Disk: p})
	// Without pre-activation the first access of each burst pays the
	// spin-up delay.
	if roff.ExecMS <= ron.ExecMS {
		t.Errorf("no-preactivation exec %.0f <= preactivated %.0f", roff.ExecMS, ron.ExecMS)
	}
	if roff.TotalWaitMS < p.SpinUpMS {
		t.Errorf("no-preactivation wait %.0fms, expected at least one spin-up", roff.TotalWaitMS)
	}
	if ron.TotalWaitMS > 1 {
		t.Errorf("preactivated wait %.1fms", ron.TotalWaitMS)
	}
}

func TestPlanShape(t *testing.T) {
	p := disk.DefaultParams()
	ss := rrSites(4, 40, 3.44)
	_, plan, err := Instrument("rr", testFiles, 4, ss, Options{Mode: ModeDRPM, Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != ModeDRPM {
		t.Error("mode")
	}
	// 4 disks x 10 requests -> 11 gaps each, the last trailing.
	if len(plan.Levels) != 4 || len(plan.PredictedIdle) != 4 {
		t.Fatalf("plan covers %d/%d disks", len(plan.Levels), len(plan.PredictedIdle))
	}
	for d := 0; d < 4; d++ {
		if len(plan.Levels[d]) != 11 || len(plan.PredictedIdle[d]) != 11 {
			t.Fatalf("disk %d plan arrays wrong length", d)
		}
		for g, l := range plan.Levels[d] {
			if l != 0 && p.LevelIndex(l) < 0 {
				t.Errorf("disk %d gap %d level %d invalid", d, g, l)
			}
			if plan.PredictedIdle[d][g] < 0 {
				t.Errorf("disk %d gap %d: negative predicted idle", d, g)
			}
		}
	}
	if plan.PredictedEndMS <= 0 {
		t.Error("predicted end not set")
	}
}

func TestInstrumentedRequestsMatchSites(t *testing.T) {
	p := disk.DefaultParams()
	ss := rrSites(8, 100, 3.44)
	tr, _, err := Instrument("rr", testFiles, 8, ss, Options{Mode: ModeDRPM, Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []trace.Request
	for _, e := range tr.Events {
		if e.Kind == trace.EvRequest {
			reqs = append(reqs, e.Req)
		}
	}
	if len(reqs) != len(ss) {
		t.Fatalf("requests = %d, want %d", len(reqs), len(ss))
	}
	for i, r := range reqs {
		s := ss[i]
		if r.Disk != s.Disk || r.Block != s.Block || r.Bytes != s.Bytes || r.Unit != s.Unit {
			t.Fatalf("request %d mismatch: %+v vs %+v", i, r, s)
		}
	}
}

func TestComputeTimePreservedByInsertion(t *testing.T) {
	// The inserted ops split compute gaps; the total compute time of
	// the instrumented trace must equal the base trace (no jitter).
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 5)
	ss := rrSites(8, 500, 3.44)
	tr, _, err := Instrument("rr", testFiles, 8, ss, Options{Mode: ModeDRPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	bt := baseTrace(8, ss, m, p)
	var a, b float64
	for _, e := range tr.Events {
		a += e.GapMS
	}
	for _, e := range bt.Events {
		b += e.GapMS
	}
	if math.Abs(a-b) > 1e-6 {
		t.Errorf("total compute changed: %.3f vs %.3f", a, b)
	}
}

func TestDownOpsFollowTheirRequest(t *testing.T) {
	p := disk.DefaultParams()
	ss := rrSites(2, 10, 60) // long gaps so every gap dips
	tr, _, err := Instrument("rr", testFiles, 2, ss, Options{Mode: ModeDRPM, Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	// After each request to disk d, the next event mentioning disk d
	// must not be a set_rpm(max) before a down-op (ordering sanity):
	// specifically a down op for d appears after d's request and
	// before d's next request.
	lastReq := -1
	for i, e := range tr.Events {
		if e.Kind == trace.EvRequest && e.Req.Disk == 0 {
			if lastReq >= 0 {
				sawDown := false
				for j := lastReq + 1; j < i; j++ {
					ev := tr.Events[j]
					if ev.Kind == trace.EvPowerOp && ev.Op.Disk == 0 && ev.Op.RPM != p.MaxRPM {
						sawDown = true
					}
				}
				if !sawDown {
					t.Fatalf("no down-op for disk 0 between requests at %d and %d", lastReq, i)
				}
			}
			lastReq = i
		}
	}
}

func TestInstrumentErrors(t *testing.T) {
	p := disk.DefaultParams()
	bad := p
	bad.RPMStep = 0
	if _, _, err := Instrument("x", testFiles, 2, rrSites(2, 4, 1), Options{Mode: ModeDRPM, Disk: bad}); err == nil {
		t.Error("bad params accepted")
	}
	ss := rrSites(2, 4, 1)
	ss[0].Disk = 9
	if _, _, err := Instrument("x", testFiles, 2, ss, Options{Mode: ModeDRPM, Disk: p}); err == nil {
		t.Error("bad sites accepted")
	}
}

func TestModeAndActionStrings(t *testing.T) {
	if ModeTPM.String() != "CMTPM" || ModeDRPM.String() != "CMDRPM" {
		t.Error("mode strings")
	}
	if Stay.String() != "stay" || Dip.String() != "dip" || Standby.String() != "standby" {
		t.Error("action strings")
	}
}

func TestEstimateMatchesManualCase(t *testing.T) {
	p := disk.DefaultParams()
	// One disk, two requests 200ms apart: one dip gap plus leading
	// and trailing gaps of zero length.
	ss := []tracegen.Site{
		{Disk: 0, Bytes: 65536, Kind: trace.Read, CyclePos: 0},
		{Disk: 0, Bytes: 65536, Kind: trace.Read, CyclePos: cycles.New(cycles.DefaultClockHz, 0, 0).CyclesForMS(200)},
	}
	_, plan, err := Instrument("m", testFiles, 1, ss, Options{Mode: ModeDRPM, Disk: p})
	if err != nil {
		t.Fatal(err)
	}
	est := plan.EstimateEnergyJ(p, ss)
	// Manual: 2 services active + gap0 idle(0) + dip(gap1) + trailing 0.
	svc := p.ServiceTimeMS(p.MaxRPM, 65536)
	gap1 := plan.PredictedIdle[0][1]
	level := plan.Levels[0][1]
	want := 2*p.ActiveW*svc/1e3 + p.DipEnergyJ(gap1, level)
	if math.Abs(est-want) > 1e-9 {
		t.Errorf("estimate %g, want %g", est, want)
	}
	// Base estimate: idling through the same gaps.
	baseWant := 2*p.ActiveW*svc/1e3 + p.IdleEnergyJ(gap1)
	if got := plan.EstimateBaseEnergyJ(p, ss); math.Abs(got-baseWant) > 1e-9 {
		t.Errorf("base estimate %g, want %g", got, baseWant)
	}
	if est >= plan.EstimateBaseEnergyJ(p, ss) {
		t.Error("dip estimate not below base")
	}
}

func TestOptionKnobSwitches(t *testing.T) {
	o := &Options{}
	if o.safety() != DefaultSafetyPct {
		t.Error("default safety")
	}
	o.SafetyPct = -1
	if o.safety() != 0 {
		t.Error("disabled safety")
	}
	o.SafetyPct = 7
	if o.safety() != 7 {
		t.Error("explicit safety")
	}
	o = &Options{GuardMS: -1}
	if o.guard(100) != 0 {
		t.Error("disabled guard")
	}
	o.GuardMS = 2.5
	if o.guard(100) != 2.5 {
		t.Error("explicit guard")
	}
}

func TestEstimateTPMStandbyGaps(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 0)
	// One long gap well above break-even, plus a trailing gap.
	long := m.CyclesForMS(p.TPMBreakEvenMS() * 3)
	ss := []tracegen.Site{
		{Disk: 0, Bytes: 65536, Kind: trace.Read, CyclePos: 0},
		{Disk: 0, Bytes: 65536, Kind: trace.Read, CyclePos: long},
	}
	_, plan, err := Instrument("m", testFiles, 1, ss, Options{Mode: ModeTPM, Disk: p, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Levels[0][1] != 0 {
		t.Fatalf("long gap not planned for standby: %v", plan.Levels[0])
	}
	est := plan.EstimateEnergyJ(p, ss)
	base := plan.EstimateBaseEnergyJ(p, ss)
	if est >= base {
		t.Errorf("TPM estimate %g not below base %g", est, base)
	}
}

// TestInstrumentOrderingInvariant generates randomized site streams —
// including clusters of requests sharing one cycle position, the
// shape that once broke restore-op ordering — and checks that in the
// instrumented trace every disk's power ops alternate correctly: a
// down-op is always restored before the disk's next request (or is
// the trailing dip), and under zero jitter no request ever waits.
func TestInstrumentOrderingInvariant(t *testing.T) {
	p := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 0, 0)
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 40; trial++ {
		nd := 2 + rng.Intn(7)
		var ss []tracegen.Site
		var cyc int64
		n := 30 + rng.Intn(200)
		for i := 0; i < n; i++ {
			// Random cluster: several requests at one cycle position.
			cyc += m.CyclesForMS(rng.Float64() * 30)
			cluster := 1 + rng.Intn(4)
			for c := 0; c < cluster && i < n; c++ {
				ss = append(ss, tracegen.Site{
					Unit: int64(i), Iter: int64(i),
					Disk: rng.Intn(nd), Block: int64(i) * 128, Bytes: 65536,
					Kind: trace.Read, CyclePos: cyc,
				})
				i++
			}
			i--
		}
		tr, _, err := Instrument("rand", testFiles, nd, ss, Options{Mode: ModeDRPM, Disk: p, Model: m})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Per-disk ordering: no request may arrive while a down-level
		// op is pending without a restore.
		pendingDown := make([]bool, nd)
		for i, e := range tr.Events {
			if e.Kind == trace.EvPowerOp {
				if e.Op.RPM == p.MaxRPM {
					pendingDown[e.Op.Disk] = false
				} else {
					pendingDown[e.Op.Disk] = true
				}
				continue
			}
			if pendingDown[e.Req.Disk] {
				t.Fatalf("trial %d: event %d: request on disk %d with unrestored dip", trial, i, e.Req.Disk)
			}
		}
		// And dynamically: zero jitter means zero waits.
		res, err := sim.Run(tr, sim.Config{Disk: p})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.TotalWaitMS > 1e-6 {
			t.Fatalf("trial %d: instrumented trace waited %.3fms under zero jitter", trial, res.TotalWaitMS)
		}
	}
}
