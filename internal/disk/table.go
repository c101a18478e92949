package disk

import (
	"math"
	"sync"
)

// Table is a precomputed power and timing table for one Params value.
// The DRPM spindle power model costs a math.Pow per query, and the
// derived quantities (transition energies, dip energies, best-RPM
// scans) each fan out into many such queries; profiles show those
// evaluations dominating both the compiler instrumentation pass and
// the simulator's per-request accounting. A Table evaluates every
// per-level quantity once — by calling the corresponding Params
// method, so each cached value is bitwise identical to what the
// uncached code computes — and serves every later query as an array
// load. Methods that combine cached values (DipEnergyJ, the best-RPM
// scans, ServiceTimeSeekMS) replicate the exact floating-point
// operation order of their Params counterparts, so switching a call
// site to the Table never changes a result bit.
//
// Queries for an rpm that is not an exact level fall back to the
// Params method; the simulator and compiler only ever use exact
// levels, so the fast path is the only one exercised in practice.
type Table struct {
	// P is the Params the table was built from.
	P Params

	n      int   // number of levels, 0 when Params are unusable
	levels []int // ascending, MinRPM..MaxRPM by RPMStep

	idleW     []float64 // IdlePowerAt per level
	activeW   []float64 // ActivePowerAt per level
	rotMS     []float64 // AvgRotMS / (level/MaxRPM) per level
	xferDenom []float64 // TransferMBps*1e6*(level/MaxRPM) per level
	transMS   []float64 // TransitionTimeMS(MaxRPM, level) per level
	transJ    []float64 // TransitionEnergyJ(MaxRPM, level) per level
	transJ2   []float64 // TransitionEnergyJ(MaxRPM, level)*2 per level
	transPair []float64 // TransitionEnergyJ(level_i, level_j), i*n+j
}

var tableCache sync.Map // Params -> *Table

// TableFor returns the memoized Table for p, building it on first
// use. Params is a comparable value type, so the cache key is the
// full parameter set: two configurations differing in any field get
// distinct tables. Safe for concurrent use.
func TableFor(p Params) *Table {
	if v, ok := tableCache.Load(p); ok {
		return v.(*Table)
	}
	v, _ := tableCache.LoadOrStore(p, newTable(p))
	return v.(*Table)
}

func newTable(p Params) *Table {
	t := &Table{P: p}
	if p.RPMStep <= 0 || p.MinRPM <= 0 || p.MinRPM > p.MaxRPM ||
		(p.MaxRPM-p.MinRPM)%p.RPMStep != 0 {
		return t // degenerate Params: every query falls back
	}
	t.n = p.NumLevels()
	t.levels = p.Levels()
	t.idleW = make([]float64, t.n)
	t.activeW = make([]float64, t.n)
	t.rotMS = make([]float64, t.n)
	t.xferDenom = make([]float64, t.n)
	t.transMS = make([]float64, t.n)
	t.transJ = make([]float64, t.n)
	t.transJ2 = make([]float64, t.n)
	t.transPair = make([]float64, t.n*t.n)
	for i, r := range t.levels {
		frac := float64(r) / float64(p.MaxRPM)
		t.idleW[i] = p.IdlePowerAt(r)
		t.activeW[i] = p.ActivePowerAt(r)
		t.rotMS[i] = p.AvgRotMS / frac
		t.xferDenom[i] = p.TransferMBps * 1e6 * frac
		t.transMS[i] = p.TransitionTimeMS(p.MaxRPM, r)
		t.transJ[i] = p.TransitionEnergyJ(p.MaxRPM, r)
		t.transJ2[i] = t.transJ[i] * 2
		for j, r2 := range t.levels {
			t.transPair[i*t.n+j] = p.TransitionEnergyJ(r, r2)
		}
	}
	return t
}

// LevelIndex is Params.LevelIndex without copying the Params: the
// index of rpm within the levels, or -1 when rpm is not an exact level
// (or the table is degenerate).
func (t *Table) LevelIndex(rpm int) int {
	if t.n == 0 || rpm < t.P.MinRPM || rpm > t.P.MaxRPM || (rpm-t.P.MinRPM)%t.P.RPMStep != 0 {
		return -1
	}
	return (rpm - t.P.MinRPM) / t.P.RPMStep
}

// ClampLevel is Params.ClampLevel without copying the Params.
func (t *Table) ClampLevel(rpm int) int {
	if rpm >= t.P.MaxRPM {
		return t.P.MaxRPM
	}
	if rpm <= t.P.MinRPM {
		return t.P.MinRPM
	}
	return t.P.MinRPM + (rpm-t.P.MinRPM)/t.P.RPMStep*t.P.RPMStep
}

// TransitionTimeMS is Params.TransitionTimeMS without copying the
// Params (same arithmetic, same bits).
func (t *Table) TransitionTimeMS(from, to int) float64 {
	d := from - to
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(t.P.RPMStep) * t.P.RPMStepTimeMS
}

// IdleEnergyJ is Params.IdleEnergyJ without copying the Params.
func (t *Table) IdleEnergyJ(idleMS float64) float64 {
	return t.P.IdleW * idleMS / 1e3
}

// StandbyEnergyJ is Params.StandbyEnergyJ without copying the Params.
func (t *Table) StandbyEnergyJ(idleMS float64) float64 {
	trans := t.P.SpinDownMS + t.P.SpinUpMS
	if trans > idleMS {
		return math.Inf(1)
	}
	return t.P.SpinDownJ + t.P.SpinUpJ + t.P.StandbyW*(idleMS-trans)/1e3
}

// TrailingStandbyWins is Params.TrailingStandbyWins without copying
// the Params.
func (t *Table) TrailingStandbyWins(idleMS float64) bool {
	if idleMS < t.P.SpinDownMS {
		return false
	}
	return t.P.SpinDownJ+t.P.StandbyW*(idleMS-t.P.SpinDownMS)/1e3 < t.P.IdleW*idleMS/1e3
}

// IdlePowerAt is Params.IdlePowerAt served from the table.
func (t *Table) IdlePowerAt(rpm int) float64 {
	if i := t.LevelIndex(rpm); i >= 0 {
		return t.idleW[i]
	}
	return t.P.IdlePowerAt(rpm)
}

// ActivePowerAt is Params.ActivePowerAt served from the table.
func (t *Table) ActivePowerAt(rpm int) float64 {
	if i := t.LevelIndex(rpm); i >= 0 {
		return t.activeW[i]
	}
	return t.P.ActivePowerAt(rpm)
}

// ServiceTimeMS is Params.ServiceTimeMS served from the table.
func (t *Table) ServiceTimeMS(rpm int, bytes int64) float64 {
	return t.ServiceTimeSeekMS(rpm, bytes, t.P.AvgSeekMS)
}

// ServiceTimeSeekMS is Params.ServiceTimeSeekMS served from the
// table: the rotational latency and transfer denominator for the
// level are cached, the seek and per-request transfer arithmetic
// keep the original evaluation order.
func (t *Table) ServiceTimeSeekMS(rpm int, bytes int64, seekMS float64) float64 {
	i := t.LevelIndex(rpm)
	if i < 0 {
		return t.P.ServiceTimeSeekMS(rpm, bytes, seekMS)
	}
	return seekMS + t.rotMS[i] + float64(bytes)/t.xferDenom[i]*1e3
}

// TransferTimeMS is Params.TransferTimeMS served from the table.
func (t *Table) TransferTimeMS(rpm int, bytes int64) float64 {
	i := t.LevelIndex(rpm)
	if i < 0 {
		return t.P.TransferTimeMS(rpm, bytes)
	}
	return float64(bytes) / t.xferDenom[i] * 1e3
}

// TransitionEnergyJ is Params.TransitionEnergyJ served from the
// precomputed pair table.
func (t *Table) TransitionEnergyJ(from, to int) float64 {
	i, j := t.LevelIndex(from), t.LevelIndex(to)
	if i < 0 || j < 0 {
		return t.P.TransitionEnergyJ(from, to)
	}
	return t.transPair[i*t.n+j]
}

// dipByIndex is Params.DipEnergyJ for the i-th level, with the
// transition time/energy pulled from the table and the remaining
// arithmetic in the original order.
func (t *Table) dipByIndex(idleMS float64, i int) float64 {
	if t.levels[i] == t.P.MaxRPM {
		return t.IdleEnergyJ(idleMS)
	}
	down := t.transMS[i]
	if down+down > idleMS {
		return math.Inf(1)
	}
	stay := idleMS - down - down
	return t.transJ2[i] + t.idleW[i]*stay/1e3
}

// DipEnergyJ is Params.DipEnergyJ served from the table.
func (t *Table) DipEnergyJ(idleMS float64, rpm int) float64 {
	i := t.LevelIndex(rpm)
	if i < 0 {
		return t.P.DipEnergyJ(idleMS, rpm)
	}
	return t.dipByIndex(idleMS, i)
}

// BestRPMForIdle is Params.BestRPMForIdle served from the table: the
// same ascending scan with the same strict-less comparison, without
// the Levels allocation or the per-level pow evaluations.
func (t *Table) BestRPMForIdle(idleMS float64) (int, float64) {
	if t.n == 0 {
		return t.P.BestRPMForIdle(idleMS)
	}
	best := t.P.MaxRPM
	bestE := t.IdleEnergyJ(idleMS)
	for i := 0; i < t.n; i++ {
		if e := t.dipByIndex(idleMS, i); e < bestE {
			bestE = e
			best = t.levels[i]
		}
	}
	return best, bestE
}

// BestRPMForTrailingIdle is Params.BestRPMForTrailingIdle served from
// the table.
func (t *Table) BestRPMForTrailingIdle(idleMS float64) (int, float64) {
	if t.n == 0 {
		return t.P.BestRPMForTrailingIdle(idleMS)
	}
	best := t.P.MaxRPM
	bestE := t.IdleEnergyJ(idleMS)
	for i := 0; i < t.n; i++ {
		tr := t.transMS[i]
		if tr > idleMS {
			continue
		}
		e := t.transJ[i] + t.idleW[i]*(idleMS-tr)/1e3
		if e < bestE {
			best, bestE = t.levels[i], e
		}
	}
	return best, bestE
}
