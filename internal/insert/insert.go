// Package insert implements the last stage of the paper's compiler:
// inserting explicit power-management calls into the program. Given
// the request sites and the predicted (mean) execution timeline, it
// decides, for every per-disk idle period, whether and how deep to
// power the disk down, and where to place the pre-activation call so
// the disk is back at full readiness when the next access arrives
// (the paper's Equation 1: d = ceil(Tsu / (s + Tm)) iterations of
// lead time; here expressed directly on the predicted timeline, with
// a guard margin absorbing the iteration-granularity rounding and
// execution jitter).
//
// The output is an instrumented trace: the original request stream
// with spin_down / spin_up / set_RPM events interleaved at the
// program points the compiler chose, plus a Plan recording every
// decision for the misprediction analysis of Table 3.
package insert

import (
	"fmt"
	"slices"
	"sort"

	"sdpm/internal/cycles"
	"sdpm/internal/disk"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
)

// Mode selects the target power-management mechanism.
type Mode int

// Instrumentation modes.
const (
	// ModeTPM emits spin_down / spin_up calls (CMTPM).
	ModeTPM Mode = iota
	// ModeDRPM emits set_RPM calls (CMDRPM).
	ModeDRPM
)

// String returns the scheme name.
func (m Mode) String() string {
	if m == ModeTPM {
		return "CMTPM"
	}
	return "CMDRPM"
}

// Options configures instrumentation.
type Options struct {
	// Mode selects CMTPM or CMDRPM.
	Mode Mode
	// Disk supplies the power model used for break-even and level
	// decisions.
	Disk disk.Params
	// Model supplies the compiler's cycle estimates and the
	// runtime's jittered actuals.
	Model *cycles.Model
	// DisablePreactivation omits the pre-activation (spin-up /
	// restore-RPM) calls: the next access pays the wake-up cost on
	// demand. Used for the ablation study.
	DisablePreactivation bool
	// GuardMS is the extra lead time added to every pre-activation;
	// a negative value disables the guard, zero selects an automatic
	// margin scaled to the jitter model.
	GuardMS float64
	// SafetyPct shrinks every predicted idle period by this
	// percentage before choosing the power mode and placing the
	// pre-activation call, making the compiler robust to its own
	// estimation error: a gap that comes out shorter than predicted
	// by up to SafetyPct still hides the wake-up transition. Zero
	// selects DefaultSafetyPct; negative disables the margin.
	SafetyPct float64
}

// DefaultSafetyPct is the default idle-estimate safety margin.
const DefaultSafetyPct = 3

func (o *Options) safety() float64 {
	switch {
	case o.SafetyPct > 0:
		return o.SafetyPct
	case o.SafetyPct < 0:
		return 0
	default:
		return DefaultSafetyPct
	}
}

func (o *Options) model() *cycles.Model {
	if o.Model != nil {
		return o.Model
	}
	return cycles.New(cycles.DefaultClockHz, 0, 0)
}

func (o *Options) guard(transMS float64) float64 {
	switch {
	case o.GuardMS > 0:
		return o.GuardMS
	case o.GuardMS < 0:
		return 0
	default:
		return 0.2 + transMS*o.model().NoisePct/100
	}
}

// Action is the planned treatment of one idle period.
type Action uint8

// Idle-period actions.
const (
	// Stay leaves the disk at full speed.
	Stay Action = iota
	// Dip lowers the disk to an RPM level (DRPM).
	Dip
	// Standby spins the disk down (TPM).
	Standby
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Dip:
		return "dip"
	case Standby:
		return "standby"
	default:
		return "stay"
	}
}

// Call locates one inserted power-management call in the program's
// iteration space (the paper's Figure 2(d) view: explicit calls in
// the code).
type Call struct {
	// Nest and Iter anchor the call in iteration space (the request
	// site the call is ordered against).
	Nest int
	Iter int64
	Op   trace.PowerOp
}

// Plan is the complete instrumentation record.
type Plan struct {
	Mode Mode
	// PredictedEndMS is the compiler's program-completion estimate.
	PredictedEndMS float64
	// Levels[d][g] is the RPM level planned for idle period g of disk
	// d (MaxRPM when the disk stays up; 0 denotes standby). Period 0
	// is the leading one (program start to first access), the last is
	// the trailing one. Used by the Table 3 misprediction analysis.
	Levels [][]int
	// PredictedIdle[d][g] is the predicted idle length per period.
	PredictedIdle [][]float64
	// Ops is the number of power-management calls inserted.
	Ops int
	// Calls locates every inserted call in iteration space, in
	// insertion order.
	Calls []Call
}

// opKey positions a stream element by compute-cycle position, with
// tie breaking that preserves program order around anchors. Request
// site i has key {CyclePos, i, 0}; sites never tie with each other or
// with an op, since no op has prio 0.
type opKey struct {
	cyc    int64
	anchor int // site index the element is ordered against
	prio   int // -1: op before anchor; 0: the request; +1: op after anchor; +2: after anchor's own ops
}

func cmpKey(a, b opKey) int {
	switch {
	case a.cyc != b.cyc:
		if a.cyc < b.cyc {
			return -1
		}
		return 1
	case a.anchor != b.anchor:
		return a.anchor - b.anchor
	default:
		return a.prio - b.prio
	}
}

// opItem is one inserted power-management call and its stream key.
type opItem struct {
	key opKey
	op  trace.PowerOp
}

func cmpOpItem(a, b opItem) int { return cmpKey(a.key, b.key) }

// Instrument builds the CMTPM/CMDRPM instrumented trace for the
// given request sites on a numDisks-disk subsystem. files is the
// subsystem's file name table the sites' file ids index; the trace
// shares it.
func Instrument(program string, files []string, numDisks int, sites []tracegen.Site, opts Options) (*trace.Trace, *Plan, error) {
	if err := opts.Disk.Validate(); err != nil {
		return nil, nil, err
	}
	if err := tracegen.Check(sites, numDisks); err != nil {
		return nil, nil, err
	}
	m := opts.model()
	p := opts.Disk
	// The gap decisions below query the disk power model once per idle
	// period per disk; the memoized table turns each of those pow-heavy
	// scans into array lookups with bit-identical results.
	tbl := disk.TableFor(p)
	svc := func(b int64) float64 { return tbl.ServiceTimeMS(p.MaxRPM, b) }
	issue := tracegen.PredictedIssueMS(sites, m, svc)

	// Completion times and the predicted program end.
	comp := make([]float64, len(sites))
	predEnd := 0.0
	for i := range sites {
		comp[i] = issue[i] + svc(sites[i].Bytes)
		if comp[i] > predEnd {
			predEnd = comp[i]
		}
	}

	// perDisk[d] lists disk d's sites in program order. Each list is
	// a window of one flat index, cut at the exact per-disk counts, so
	// the appends below never reallocate.
	count := make([]int, numDisks)
	for i := range sites {
		count[sites[i].Disk]++
	}
	flat := make([]int, len(sites))
	perDisk := make([][]int, numDisks)
	off := 0
	for d, n := range count {
		perDisk[d] = flat[off : off : off+n]
		off += n
	}
	for i := range sites {
		perDisk[sites[i].Disk] = append(perDisk[sites[i].Disk], i)
	}

	// timeToCycle converts a predicted wall time into a compute-cycle
	// position, snapping times that fall inside a service interval to
	// its completion (the application executes no iterations while
	// blocked on I/O).
	//
	// Both searches below start from the previous answer: ops are
	// placed disk by disk in gap order, so consecutive searches land
	// close together.
	var lastJ, lastAnchor int
	timeToCycle := func(t float64) int64 {
		// Find the last site whose completion is <= t.
		j := searchFrom(len(sites), lastJ, func(k int) bool { return comp[k] > t })
		lastJ = j
		var baseT float64
		var baseC int64
		if j > 0 {
			baseT = comp[j-1]
			baseC = sites[j-1].CyclePos
		}
		if t < baseT {
			t = baseT
		}
		c := baseC + m.CyclesForMS(t-baseT)
		if j < len(sites) && c > sites[j].CyclePos {
			c = sites[j].CyclePos
		}
		return c
	}
	// anchorFor returns the site index an op at cycle position c is
	// ordered against: the first site with CyclePos >= c.
	anchorFor := func(c int64) int {
		lastAnchor = searchFrom(len(sites), lastAnchor, func(k int) bool { return sites[k].CyclePos >= c })
		return lastAnchor
	}

	plan := &Plan{
		Mode:           opts.Mode,
		PredictedEndMS: predEnd,
		Levels:         make([][]int, numDisks),
		PredictedIdle:  make([][]float64, numDisks),
	}
	// Every disk has one idle period per request plus the trailing
	// one; each disk's periods are a window of one flat array.
	levels := make([]int, len(sites)+numDisks)
	idles := make([]float64, len(sites)+numDisks)

	// gapBounds returns the predicted start and end of idle period g
	// of disk d, and the site its power-down is anchored after (-1 for
	// the leading period).
	gapBounds := func(d, g int) (start, end float64, afterSite int) {
		afterSite = -1
		if g > 0 {
			afterSite = perDisk[d][g-1]
			start = comp[afterSite]
		}
		if g == len(perDisk[d]) {
			end = predEnd
		} else {
			end = issue[perDisk[d][g]]
		}
		return start, end, afterSite
	}

	// action recovers the decision for a planned level.
	action := func(level int) Action {
		switch {
		case level == p.MaxRPM:
			return Stay
		case opts.Mode == ModeTPM:
			return Standby
		default:
			return Dip
		}
	}

	// First decide every idle period's power mode, counting the calls
	// the decisions need.
	nOps := 0
	off = 0
	for d := 0; d < numDisks; d++ {
		nGaps := len(perDisk[d]) + 1
		plan.Levels[d] = levels[off : off+nGaps : off+nGaps]
		plan.PredictedIdle[d] = idles[off : off+nGaps : off+nGaps]
		off += nGaps
		for g := 0; g < nGaps; g++ {
			start, end, _ := gapBounds(d, g)
			trailing := g == nGaps-1
			idle := end - start
			if idle < 0 {
				idle = 0
			}
			plan.PredictedIdle[d][g] = idle
			level := p.MaxRPM
			switch opts.Mode {
			case ModeDRPM:
				if trailing {
					level, _ = tbl.BestRPMForTrailingIdle(idle)
				} else {
					level, _ = tbl.BestRPMForIdle(idle)
				}
			case ModeTPM:
				worthIt := false
				if trailing {
					worthIt = tbl.TrailingStandbyWins(idle)
				} else {
					worthIt = tbl.StandbyEnergyJ(idle) < tbl.IdleEnergyJ(idle)
				}
				if worthIt {
					level = 0
				}
			default:
				return nil, nil, fmt.Errorf("insert: unknown mode %d", opts.Mode)
			}
			plan.Levels[d][g] = level
			if action(level) != Stay {
				nOps++
				if !trailing && !opts.DisablePreactivation {
					nOps++
				}
			}
		}
	}

	// Then place the calls, disk by disk in gap order: disk d's ops
	// are the contiguous run ops[opStart[d]:opStart[d+1]].
	ops := make([]opItem, 0, nOps)
	opStart := make([]int, numDisks+1)
	// addOp inserts a power op at predicted time t. afterSite >= 0
	// anchors the op just after that request (down-ops at a gap
	// start). notBefore >= 0 enforces a program-order floor: the op
	// must sort after that request and after any op anchored to it —
	// required for restore ops whose lead time reaches back into a
	// cluster of requests sharing one cycle position, where the
	// time-based anchor alone could order the restore before its own
	// gap's power-down.
	addOp := func(t float64, afterSite, notBefore int, op trace.PowerOp) {
		c := timeToCycle(t)
		k := opKey{cyc: c}
		if afterSite >= 0 && c <= sites[afterSite].CyclePos {
			k = opKey{cyc: sites[afterSite].CyclePos, anchor: afterSite, prio: 1}
		} else {
			k.anchor = anchorFor(c)
			k.prio = -1
		}
		if notBefore >= 0 {
			floor := opKey{cyc: sites[notBefore].CyclePos, anchor: notBefore, prio: 2}
			if cmpKey(k, floor) < 0 {
				k = floor
			}
		}
		ops = append(ops, opItem{key: k, op: op})
	}
	for d := 0; d < numDisks; d++ {
		for g, level := range plan.Levels[d] {
			act := action(level)
			if act == Stay {
				continue
			}
			idle := plan.PredictedIdle[d][g]
			start, end, afterSite := gapBounds(d, g)
			preactivate := g < len(perDisk[d]) && !opts.DisablePreactivation
			// Pre-activation is anchored a safety margin (a fraction
			// of the predicted idle length) ahead of the next access,
			// so a gap that comes out shorter than predicted by up to
			// that margin still hides the wake-up transition. The
			// power-mode choice itself uses the unbiased estimate
			// (what Table 3 compares).
			margin := idle * opts.safety() / 100
			if act == Dip {
				addOp(start, afterSite, -1, trace.PowerOp{Disk: d, Kind: trace.OpSetRPM, RPM: level, PredictedIdleMS: idle})
				if preactivate {
					tr := tbl.TransitionTimeMS(level, p.MaxRPM)
					up := end - tr - margin - opts.guard(tr)
					if min := start + tbl.TransitionTimeMS(p.MaxRPM, level); up < min {
						up = min
					}
					addOp(up, -1, afterSite, trace.PowerOp{Disk: d, Kind: trace.OpSetRPM, RPM: p.MaxRPM})
				}
			} else {
				addOp(start, afterSite, -1, trace.PowerOp{Disk: d, Kind: trace.OpSpinDown, PredictedIdleMS: idle})
				if preactivate {
					up := end - p.SpinUpMS - margin - opts.guard(p.SpinUpMS)
					if min := start + p.SpinDownMS; up < min {
						up = min
					}
					addOp(up, -1, afterSite, trace.PowerOp{Disk: d, Kind: trace.OpSpinUp})
				}
			}
		}
		opStart[d+1] = len(ops)
	}

	plan.Ops = len(ops)
	if len(ops) > 0 && len(sites) > 0 {
		plan.Calls = make([]Call, len(ops))
		for i := range ops {
			anchor := min(ops[i].key.anchor, len(sites)-1)
			plan.Calls[i] = Call{Nest: sites[anchor].Nest, Iter: sites[anchor].Iter, Op: ops[i].op}
		}
	}
	tr := emit(program, numDisks, sites, ops, opStart, m, svc)
	tr.Files = files
	return tr, plan, nil
}

// searchFrom returns sort.Search(n, f) for a search whose answer is
// expected near hint: it gallops outward from hint to bracket the
// answer, then binary-searches the bracket. As for sort.Search, f
// must be false on a prefix of [0, n) and true on the rest.
func searchFrom(n, hint int, f func(int) bool) int {
	hint = min(max(hint, 0), n)
	// The answer lies in [lo, hi].
	lo, hi := 0, n
	if hint == n || f(hint) {
		hi = hint
		for step := 1; hint-step >= 0; step *= 2 {
			if !f(hint - step) {
				lo = hint - step + 1
				break
			}
			hi = hint - step
		}
	} else {
		lo = hint + 1
		for step := 1; hint+step < n; step *= 2 {
			if f(hint + step) {
				hi = hint + step
				break
			}
			lo = hint + step + 1
		}
	}
	return lo + sort.Search(hi-lo, func(k int) bool { return f(lo + k) })
}

// emit merges the request sites with the per-disk op lists
// ops[opStart[d]:opStart[d+1]] into the instrumented trace, with
// jittered actual gaps. The stream order is ascending opKey, ties
// between ops going to the lower disk and then to the earlier op of
// one disk: the order a stable sort of all sites and ops, in
// insertion order, would produce. Each disk's ops come out of the gap
// walk already in key order; a list that is not is stable-sorted in
// place first, so the output never depends on that invariant.
func emit(program string, numDisks int, sites []tracegen.Site, ops []opItem, opStart []int, m *cycles.Model, svc func(int64) float64) *trace.Trace {
	for d := 0; d < numDisks; d++ {
		if list := ops[opStart[d]:opStart[d+1]]; !slices.IsSortedFunc(list, cmpOpItem) {
			slices.SortStableFunc(list, cmpOpItem)
		}
	}
	// head[d] is the next unemitted op of disk d; best is the disk
	// whose head sorts first, or -1 when every list is drained.
	head := make([]int, numDisks)
	copy(head, opStart)
	best := -1
	nextBest := func() {
		best = -1
		for d := 0; d < numDisks; d++ {
			if head[d] < opStart[d+1] && (best < 0 || cmpOpItem(ops[head[d]], ops[head[best]]) < 0) {
				best = d
			}
		}
	}
	nextBest()

	tr := &trace.Trace{Program: program, NumDisks: numDisks}
	tr.Events = make([]trace.Event, len(sites)+len(ops))
	var prevCyc int64
	var arrival float64
	si := 0
	for i := range tr.Events {
		var key opKey
		var op *opItem
		if best >= 0 && (si == len(sites) ||
			cmpKey(ops[head[best]].key, opKey{cyc: sites[si].CyclePos, anchor: si}) < 0) {
			op = &ops[head[best]]
			key = op.key
			head[best]++
			nextBest()
		} else {
			key = opKey{cyc: sites[si].CyclePos, anchor: si}
			si++
		}
		gapCyc := key.cyc - prevCyc
		if gapCyc < 0 {
			gapCyc = 0
		}
		prevCyc = key.cyc
		nest := 0
		if key.anchor < len(sites) {
			nest = sites[key.anchor].Nest
		} else if len(sites) > 0 {
			nest = sites[len(sites)-1].Nest
		}
		gap := m.ActualMSIn(gapCyc, uint64(i), nest)
		arrival += gap
		// Fill the freshly zeroed event in place rather than copying
		// a whole Event value in.
		e := &tr.Events[i]
		e.GapMS = gap
		if op != nil {
			e.Kind = trace.EvPowerOp
			e.Op = op.op
			continue
		}
		s := &sites[key.anchor]
		e.Kind = trace.EvRequest
		e.Req = trace.Request{
			ArrivalMS: arrival,
			Disk:      s.Disk, Block: s.Block, Bytes: s.Bytes, Kind: s.Kind,
			File: s.File, Unit: s.Unit, Nest: s.Nest, Iter: s.Iter,
		}
		arrival += svc(s.Bytes)
	}
	return tr
}
