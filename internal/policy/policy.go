// Package policy implements the disk power management schemes the
// paper evaluates against (Section 4.2):
//
//   - Base: no power management.
//   - TPM: traditional threshold-based spin-down (reactive).
//   - ITPM: ideal TPM with an oracle idle-period predictor.
//   - DRPM: the reactive dynamic-RPM controller of Gurumurthi et al.,
//     with response-time windows and upper/lower tolerances.
//   - IDRPM: ideal DRPM with an oracle idle-period predictor.
//
// The compiler-managed schemes (CMTPM, CMDRPM) are not policies: they
// arrive as explicit power-op events in the instrumented trace and
// are executed by the simulator directly.
//
// Oracle policies exploit the simulator's lazy energy accounting: at
// each request issue the idle period that just ended is fully known
// and still uncommitted, so the optimal action can be applied
// retroactively — which is exactly the semantics of an oracle
// predictor, with no execution-time penalty by construction.
package policy

import (
	"sdpm/internal/disk"
	"sdpm/internal/obs/events"
	"sdpm/internal/sim"
)

// Base is the no-power-management scheme.
type Base struct{}

// NewBase returns the base (no power management) policy.
func NewBase() *Base { return &Base{} }

// Name implements sim.Policy.
func (*Base) Name() string { return "Base" }

// BeforeService implements sim.Policy.
func (*Base) BeforeService(*sim.Machine, int, float64) {}

// AfterService implements sim.Policy.
func (*Base) AfterService(*sim.Machine, int, float64, float64) {}

// Finish implements sim.Policy.
func (*Base) Finish(*sim.Machine, float64) {}

// Horizon implements sim.HorizonPolicy: Base never acts, so the
// batched executor may skip every decision point.
func (*Base) Horizon() sim.Horizon { return sim.Horizon{} }

// DecisionTrigger implements sim.TriggerPolicy. Base never decides,
// so the label is empty.
func (*Base) DecisionTrigger() string { return "" }

// TPM is the traditional reactive spin-down policy: after a disk has
// been idle for ThresholdMS it is spun down; the next request pays
// the full spin-up delay.
type TPM struct {
	p disk.Params
	// ThresholdMS is the idleness threshold.
	ThresholdMS float64
}

// NewTPM returns a reactive TPM policy with the given idleness
// threshold; a non-positive threshold selects the break-even
// threshold.
func NewTPM(p disk.Params, thresholdMS float64) *TPM {
	if thresholdMS <= 0 {
		thresholdMS = p.TPMBreakEvenMS()
	}
	return &TPM{p: p, ThresholdMS: thresholdMS}
}

// Name implements sim.Policy.
func (*TPM) Name() string { return "TPM" }

// DecisionTrigger implements sim.TriggerPolicy: TPM decisions fire on
// idleness-threshold expiry.
func (*TPM) DecisionTrigger() string { return events.TrigThreshold }

// BeforeService spins the disk down retroactively if the gap that
// just ended exceeded the threshold; the simulator then charges the
// on-demand spin-up to this request.
func (t *TPM) BeforeService(m *sim.Machine, d int, now float64) {
	start := m.IdleFrom(d)
	if now-start > t.ThresholdMS && m.StatusOf(d) == sim.StSpinning && m.CurRPM(d) == t.p.MaxRPM {
		m.SpinDownAt(d, start+t.ThresholdMS)
	}
}

// AfterService implements sim.Policy.
func (*TPM) AfterService(*sim.Machine, int, float64, float64) {}

// Horizon implements sim.HorizonPolicy: BeforeService acts only when
// the ended idle period exceeds the threshold on a full-speed disk.
// The predicate repeats BeforeService's own comparisons (the status
// check is the executor's precondition), so it can never disagree
// with the real call.
func (t *TPM) Horizon() sim.Horizon {
	return sim.Horizon{
		NoOpBefore: func(d int, start, now float64, rpm int) bool {
			return !(now-start > t.ThresholdMS && rpm == t.p.MaxRPM)
		},
	}
}

// Finish spins down disks whose trailing idleness exceeds the
// threshold (no spin-up needed before program end).
func (t *TPM) Finish(m *sim.Machine, endT float64) {
	for d := 0; d < m.NumDisks(); d++ {
		start := m.IdleFrom(d)
		if endT-start > t.ThresholdMS && m.StatusOf(d) == sim.StSpinning {
			m.SpinDownAt(d, start+t.ThresholdMS)
		}
	}
}

// ITPM is the ideal TPM scheme: an oracle knows every idle period's
// length, spins down only when the period is long enough to save
// energy, and pre-activates the disk so no request ever waits.
type ITPM struct {
	p disk.Params
}

// NewITPM returns the ideal TPM policy.
func NewITPM(p disk.Params) *ITPM { return &ITPM{p: p} }

// Name implements sim.Policy.
func (*ITPM) Name() string { return "ITPM" }

// DecisionTrigger implements sim.TriggerPolicy: ITPM places actions
// with oracle knowledge of the ended idle period.
func (*ITPM) DecisionTrigger() string { return events.TrigOracle }

// BeforeService applies the oracle decision to the idle period that
// just ended: spin down at its start and spin up exactly SpinUpMS
// before now, if and only if that saves energy.
func (t *ITPM) BeforeService(m *sim.Machine, d int, now float64) {
	start := m.IdleFrom(d)
	idle := now - start
	if m.StatusOf(d) != sim.StSpinning || m.CurRPM(d) != t.p.MaxRPM {
		return
	}
	if t.p.StandbyEnergyJ(idle) < t.p.IdleEnergyJ(idle) {
		m.SpinDownAt(d, start)
		m.SpinUpAt(d, now-t.p.SpinUpMS)
	}
}

// AfterService implements sim.Policy.
func (*ITPM) AfterService(*sim.Machine, int, float64, float64) {}

// Horizon implements sim.HorizonPolicy: the oracle acts only when
// standby beats idling for the just-ended period, evaluated with the
// exact comparison BeforeService performs.
func (t *ITPM) Horizon() sim.Horizon {
	return sim.Horizon{
		NoOpBefore: func(d int, start, now float64, rpm int) bool {
			if rpm != t.p.MaxRPM {
				return true
			}
			idle := now - start
			return !(t.p.StandbyEnergyJ(idle) < t.p.IdleEnergyJ(idle))
		},
	}
}

// Finish exploits each disk's trailing idle period: spinning down is
// worthwhile whenever it saves energy, and no spin-up is needed.
func (t *ITPM) Finish(m *sim.Machine, endT float64) {
	for d := 0; d < m.NumDisks(); d++ {
		start := m.IdleFrom(d)
		if m.StatusOf(d) != sim.StSpinning {
			continue
		}
		if t.p.TrailingStandbyWins(endT - start) {
			m.SpinDownAt(d, start)
		}
	}
}

// DefaultIdleStepMS is the idleness per one-step RPM ramp of the
// reactive DRPM controller.
const DefaultIdleStepMS = 40

// DRPM is the reactive dynamic-RPM policy of Gurumurthi et al.: each
// disk autonomously ramps down during idleness, one RPM step per
// IdleStepMS, and requests are serviced at whatever level the disk
// has reached — the reactive scheme's performance penalty. The array
// controller watches the average response time over
// WindowSize-request windows (array-wide): if the change since the
// previous window exceeds the upper tolerance, every disk is
// commanded back to full speed and further ramping is suspended; if
// it stays below the lower tolerance, ramping is allowed again.
type DRPM struct {
	p disk.Params
	// IdleStepMS is the idle time per one-step ramp.
	IdleStepMS float64

	rampOK   bool
	winSum   float64
	winN     int
	prevAvg  float64
	havePrev bool
}

// NewDRPM returns a reactive DRPM policy for a subsystem of numDisks
// disks.
func NewDRPM(p disk.Params, numDisks int) *DRPM {
	_ = numDisks // the controller state is array-wide
	return &DRPM{p: p, IdleStepMS: DefaultIdleStepMS, rampOK: true}
}

// Name implements sim.Policy.
func (*DRPM) Name() string { return "DRPM" }

// DecisionTrigger implements sim.TriggerPolicy: DRPM decisions come
// from the autonomous idleness ramp (window-trip restores are
// relabelled "controller" by the simulator's AfterService context).
func (*DRPM) DecisionTrigger() string { return events.TrigRamp }

// BeforeService ramps the disk down through the idle period that just
// ended: one RPM step per IdleStepMS of idleness, floored by the
// controller. The request is then serviced at whatever level the
// disk reached — the reactive scheme's performance penalty.
func (r *DRPM) BeforeService(m *sim.Machine, d int, now float64) {
	r.rampDown(m, d, m.IdleFrom(d), now)
}

func (r *DRPM) rampDown(m *sim.Machine, d int, start, end float64) {
	if !r.rampOK {
		return
	}
	if m.StatusOf(d) == sim.StStandby || m.StatusOf(d) == sim.StDown || m.StatusOf(d) == sim.StUp {
		return
	}
	cur := m.CurRPM(d)
	t := start + r.IdleStepMS
	for cur > r.p.MinRPM && t <= end {
		cur -= r.p.RPMStep
		if cur < r.p.MinRPM {
			cur = r.p.MinRPM
		}
		m.SetRPMAt(d, t, cur)
		t += r.IdleStepMS
	}
}

// Horizon implements sim.HorizonPolicy. BeforeService (rampDown) is
// a no-op when ramping is suspended, the disk is already at the
// floor, or the idle period is shorter than one ramp step; the
// closure reads the live controller state, so a window trip
// suspending or re-enabling ramps is reflected immediately. The
// controller window needs every response time, so AfterService runs
// per request even on the fast path.
func (r *DRPM) Horizon() sim.Horizon {
	return sim.Horizon{
		NoOpBefore: func(d int, start, now float64, rpm int) bool {
			if !r.rampOK {
				return true
			}
			if rpm <= r.p.MinRPM {
				return true
			}
			return start+r.IdleStepMS > now
		},
		AfterPerRequest: true,
	}
}

// AfterService feeds the controller window and gates the ramping.
func (r *DRPM) AfterService(m *sim.Machine, d int, end, responseMS float64) {
	r.winSum += responseMS
	r.winN++
	if r.winN < r.p.WindowSize {
		return
	}
	avg := r.winSum / float64(r.winN)
	r.winSum, r.winN = 0, 0
	if r.havePrev && r.prevAvg > 0 {
		pct := (avg - r.prevAvg) / r.prevAvg * 100
		switch {
		case pct > r.p.UpperTolerancePct:
			// Performance degraded: restore full speed everywhere
			// and suspend ramping until performance stabilizes.
			r.rampOK = false
			for dd := 0; dd < m.NumDisks(); dd++ {
				m.SetRPMAt(dd, end, r.p.MaxRPM)
			}
		case pct < r.p.LowerTolerancePct:
			// Performance stable: ramping allowed.
			r.rampOK = true
		}
	}
	r.prevAvg = avg
	r.havePrev = true
}

// Finish ramps each disk down through its trailing idleness.
func (r *DRPM) Finish(m *sim.Machine, endT float64) {
	for d := 0; d < m.NumDisks(); d++ {
		r.rampDown(m, d, m.IdleFrom(d), endT)
	}
}

// IDRPM is the ideal DRPM scheme: an oracle knows every idle
// period's length and dips each one to the energy-optimal RPM level,
// returning to full speed exactly in time for the next request.
type IDRPM struct {
	p disk.Params
	// tbl serves the per-idle-period best-RPM scans and transition
	// times from the memoized power table (bit-identical to the Params
	// methods).
	tbl *disk.Table
}

// NewIDRPM returns the ideal DRPM policy.
func NewIDRPM(p disk.Params) *IDRPM { return &IDRPM{p: p, tbl: disk.TableFor(p)} }

// Name implements sim.Policy.
func (*IDRPM) Name() string { return "IDRPM" }

// DecisionTrigger implements sim.TriggerPolicy: IDRPM dips periods
// with oracle knowledge of their length.
func (*IDRPM) DecisionTrigger() string { return events.TrigOracle }

// BeforeService dips the just-ended idle period optimally.
func (r *IDRPM) BeforeService(m *sim.Machine, d int, now float64) {
	if m.StatusOf(d) != sim.StSpinning || m.CurRPM(d) != r.p.MaxRPM {
		return
	}
	start := m.IdleFrom(d)
	idle := now - start
	if rpm, _ := r.tbl.BestRPMForIdle(idle); rpm != r.p.MaxRPM {
		m.SetRPMAt(d, start, rpm)
		m.SetRPMAt(d, now-r.tbl.TransitionTimeMS(rpm, r.p.MaxRPM), r.p.MaxRPM)
	}
}

// AfterService implements sim.Policy.
func (*IDRPM) AfterService(*sim.Machine, int, float64, float64) {}

// Horizon implements sim.HorizonPolicy: the oracle acts only when
// some lower level beats full-speed idling for the just-ended
// period. The check runs the same table scan BeforeService runs.
func (r *IDRPM) Horizon() sim.Horizon {
	return sim.Horizon{
		NoOpBefore: func(d int, start, now float64, rpm int) bool {
			if rpm != r.p.MaxRPM {
				return true
			}
			best, _ := r.tbl.BestRPMForIdle(now - start)
			return best == r.p.MaxRPM
		},
	}
}

// Finish dips each disk's trailing idle period to the level
// minimizing one-way transition plus residence energy.
func (r *IDRPM) Finish(m *sim.Machine, endT float64) {
	for d := 0; d < m.NumDisks(); d++ {
		if m.StatusOf(d) != sim.StSpinning || m.CurRPM(d) != r.p.MaxRPM {
			continue
		}
		start := m.IdleFrom(d)
		if best, _ := r.tbl.BestRPMForTrailingIdle(endT - start); best != r.p.MaxRPM {
			m.SetRPMAt(d, start, best)
		}
	}
}
