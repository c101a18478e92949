package insert

import (
	"fmt"
	"sort"

	"sdpm/internal/cycles"
	"sdpm/internal/disk"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
)

// mergedItem is a stream element being assembled: a request site or
// an inserted op, positioned by compute-cycle position with tie
// breaking that preserves program order around anchors.
type mergedItem struct {
	cyc    int64
	anchor int // site index the item is anchored to
	prio   int // -1: op before anchor; 0: the request; +1: op after anchor
	site   int // site index for requests
	op     trace.PowerOp
	isOp   bool
}

// instrumentReference is Instrument as it was before call insertion
// became a merge: every request site and every op go into one slice
// that a global stable sort puts in stream order. It is the oracle
// of the insertion-order differential tests.
func instrumentReference(program string, files []string, numDisks int, sites []tracegen.Site, opts Options) (*trace.Trace, *Plan, error) {
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

	perDisk := make([][]int, numDisks)
	for i := range sites {
		perDisk[sites[i].Disk] = append(perDisk[sites[i].Disk], i)
	}

	// timeToCycle converts a predicted wall time into a compute-cycle
	// position, snapping times that fall inside a service interval to
	// its completion (the application executes no iterations while
	// blocked on I/O).
	timeToCycle := func(t float64) int64 {
		// Find the last site whose completion is <= t.
		j := sort.Search(len(sites), func(k int) bool { return comp[k] > t })
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
		return sort.Search(len(sites), func(k int) bool { return sites[k].CyclePos >= c })
	}

	plan := &Plan{
		Mode:           opts.Mode,
		PredictedEndMS: predEnd,
		Levels:         make([][]int, numDisks),
		PredictedIdle:  make([][]float64, numDisks),
	}

	items := make([]mergedItem, 0, len(sites)*2)
	for i := range sites {
		items = append(items, mergedItem{cyc: sites[i].CyclePos, anchor: i, prio: 0, site: i})
	}
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
		it := mergedItem{cyc: c, op: op, isOp: true}
		if afterSite >= 0 && c <= sites[afterSite].CyclePos {
			it.cyc = sites[afterSite].CyclePos
			it.anchor = afterSite
			it.prio = 1
		} else {
			it.anchor = anchorFor(c)
			it.prio = -1
		}
		if notBefore >= 0 {
			floorCyc := sites[notBefore].CyclePos
			if it.cyc < floorCyc ||
				(it.cyc == floorCyc && (it.anchor < notBefore || (it.anchor == notBefore && it.prio <= 1))) {
				it.cyc = floorCyc
				it.anchor = notBefore
				it.prio = 2
			}
		}
		items = append(items, it)
		plan.Ops++
		anchor := it.anchor
		if anchor >= len(sites) {
			anchor = len(sites) - 1
		}
		if anchor >= 0 {
			plan.Calls = append(plan.Calls, Call{Nest: sites[anchor].Nest, Iter: sites[anchor].Iter, Op: op})
		}
	}

	for d := 0; d < numDisks; d++ {
		nGaps := len(perDisk[d]) + 1
		plan.Levels[d] = make([]int, nGaps)
		plan.PredictedIdle[d] = make([]float64, nGaps)
		for g := 0; g < nGaps; g++ {
			var start, end float64
			afterSite := -1 // site the down-op is anchored after
			trailing := g == nGaps-1
			if g == 0 {
				start = 0
			} else {
				si := perDisk[d][g-1]
				start = comp[si]
				afterSite = si
			}
			if trailing {
				end = predEnd
			} else {
				end = issue[perDisk[d][g]]
			}
			idle := end - start
			if idle < 0 {
				idle = 0
			}
			plan.PredictedIdle[d][g] = idle
			plan.Levels[d][g] = p.MaxRPM

			// Pre-activation is anchored a safety margin (a fraction
			// of the predicted idle length) ahead of the next
			// access, so a gap that comes out shorter than predicted
			// by up to that margin still hides the wake-up
			// transition. The power-mode choice itself uses the
			// unbiased estimate (what Table 3 compares).
			margin := idle * opts.safety() / 100
			switch opts.Mode {
			case ModeDRPM:
				var level int
				if trailing {
					level, _ = tbl.BestRPMForTrailingIdle(idle)
				} else {
					level, _ = tbl.BestRPMForIdle(idle)
				}
				if level != p.MaxRPM {
					plan.Levels[d][g] = level
					addOp(start, afterSite, -1, trace.PowerOp{Disk: d, Kind: trace.OpSetRPM, RPM: level, PredictedIdleMS: idle})
					if !trailing && !opts.DisablePreactivation {
						tr := p.TransitionTimeMS(level, p.MaxRPM)
						up := end - tr - margin - opts.guard(tr)
						if min := start + p.TransitionTimeMS(p.MaxRPM, level); up < min {
							up = min
						}
						addOp(up, -1, afterSite, trace.PowerOp{Disk: d, Kind: trace.OpSetRPM, RPM: p.MaxRPM})
					}
				}
			case ModeTPM:
				worthIt := false
				if trailing {
					worthIt = p.TrailingStandbyWins(idle)
				} else {
					worthIt = p.StandbyEnergyJ(idle) < p.IdleEnergyJ(idle)
				}
				if worthIt {
					plan.Levels[d][g] = 0
					addOp(start, afterSite, -1, trace.PowerOp{Disk: d, Kind: trace.OpSpinDown, PredictedIdleMS: idle})
					if !trailing && !opts.DisablePreactivation {
						up := end - p.SpinUpMS - margin - opts.guard(p.SpinUpMS)
						if min := start + p.SpinDownMS; up < min {
							up = min
						}
						addOp(up, -1, afterSite, trace.PowerOp{Disk: d, Kind: trace.OpSpinUp})
					}
				}
			default:
				return nil, nil, fmt.Errorf("insert: unknown mode %d", opts.Mode)
			}
		}
	}

	tr := referenceEmit(program, numDisks, sites, items, m, svc)
	tr.Files = files
	return tr, plan, nil
}

// referenceEmit orders the assembled items with one global stable
// sort and emits the instrumented trace.
func referenceEmit(program string, numDisks int, sites []tracegen.Site, items []mergedItem, m *cycles.Model, svc func(int64) float64) *trace.Trace {
	sort.SliceStable(items, func(a, b int) bool {
		ia, ib := &items[a], &items[b]
		if ia.cyc != ib.cyc {
			return ia.cyc < ib.cyc
		}
		if ia.anchor != ib.anchor {
			return ia.anchor < ib.anchor
		}
		return ia.prio < ib.prio
	})

	// Emit the instrumented trace with jittered actual gaps.
	tr := &trace.Trace{Program: program, NumDisks: numDisks}
	tr.Events = make([]trace.Event, 0, len(items))
	var prevCyc int64
	var arrival float64
	for i, it := range items {
		gapCyc := it.cyc - prevCyc
		if gapCyc < 0 {
			gapCyc = 0
		}
		prevCyc = it.cyc
		nest := 0
		if it.anchor < len(sites) {
			nest = sites[it.anchor].Nest
		} else if len(sites) > 0 {
			nest = sites[len(sites)-1].Nest
		}
		gap := m.ActualMSIn(gapCyc, uint64(i), nest)
		arrival += gap
		if it.isOp {
			tr.Events = append(tr.Events, trace.Event{Kind: trace.EvPowerOp, GapMS: gap, Op: it.op})
			continue
		}
		s := sites[it.site]
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.EvRequest,
			GapMS: gap,
			Req: trace.Request{
				ArrivalMS: arrival,
				Disk:      s.Disk, Block: s.Block, Bytes: s.Bytes, Kind: s.Kind,
				File: s.File, Unit: s.Unit, Nest: s.Nest, Iter: s.Iter,
			},
		})
		arrival += svc(s.Bytes)
	}
	return tr
}
