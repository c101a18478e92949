package sim

import (
	"sdpm/internal/obs"
	"sdpm/internal/trace"
)

// Horizon is a policy's decision-horizon contract with the batched
// executor. The fast path may only skip a policy's BeforeService call
// when the policy guarantees the call would not act; NoOpBefore is
// that guarantee, evaluated with the same floating-point comparisons
// the policy itself would perform so the prediction can never
// disagree with the real call.
type Horizon struct {
	// NoOpBefore reports whether the policy's BeforeService for disk
	// d at time now is guaranteed to be a no-op, given that the disk
	// has been idle since start and is spinning at rpm. The executor
	// only consults it for spinning disks. A false return is always
	// safe: the executor bails to the general path, which runs the
	// real BeforeService. A nil NoOpBefore means BeforeService never
	// acts (the base policy).
	NoOpBefore func(d int, start, now float64, rpm int) bool
	// AfterPerRequest marks policies whose AfterService observes
	// every request (the reactive DRPM controller window); the fast
	// path then invokes AfterService per request exactly as the
	// general path does. Policies with an empty AfterService leave it
	// false and the fast path skips the call entirely.
	AfterPerRequest bool
}

// HorizonPolicy is implemented by policies that can describe their
// decision horizon to the batched executor. A Policy that does not
// implement it disables batching for the run (correctness first).
type HorizonPolicy interface {
	Policy
	Horizon() Horizon
}

// batchEntry caches one disk's steady-state constants for the
// batched fast path, keyed by the (rpm, bytes) pair they were
// computed for and recomputed whenever either changes. Every cached
// value is produced by the same table call the general path makes,
// so the fast path's arithmetic is bit-identical.
type batchEntry struct {
	rpm      int
	residIdx int // LevelIndex(rpm)
	bytes    int64
	svc      float64 // ServiceTimeSeekMS(rpm, bytes, AvgSeekMS)
	addActJ  float64 // ActivePowerAt(rpm) * svc / 1e3
	pwIdle   float64 // IdlePowerAt(rpm)
	pwAct    float64 // ActivePowerAt(rpm)
	// idleLen/idleE memoize the last idle-energy product
	// pwIdle * idleLen / 1e3 — in steady state every idle period has
	// the same length, so the division runs once per length change
	// rather than once per request. Same inputs, same bits.
	idleLen float64
	idleE   float64
}

// refresh recomputes the entry for a disk spinning at rpm serving
// requests of the given size.
func (c *batchEntry) refresh(m *Machine, rpm int, bytes int64) {
	c.rpm = rpm
	c.bytes = bytes
	c.pwIdle = m.tbl.IdlePowerAt(rpm)
	c.pwAct = m.tbl.ActivePowerAt(rpm)
	c.svc = m.tbl.ServiceTimeSeekMS(rpm, bytes, m.p.AvgSeekMS)
	c.addActJ = c.pwAct * c.svc / 1e3
	c.residIdx = m.tbl.LevelIndex(rpm)
	c.idleLen = -1 // unmatchable: idle memo invalid for new rpm
}

// batchScratch is the per-disk constant cache (one entry per disk,
// one allocation per machine).
type batchScratch []batchEntry

func (m *Machine) batchScratchFor(n int) batchScratch {
	if m.batch != nil {
		return m.batch
	}
	sc := make(batchScratch, n)
	for d := range sc {
		sc[d].rpm = -1 // no valid cached entry yet
	}
	m.batch = sc
	return sc
}

// Bail-out reasons, stamped as the Detail of events.KindBailout.
const (
	bailTransition = "disk_transition" // a power action or spin-up is in flight on the disk
	bailPolicy     = "policy_decision" // the horizon says BeforeService may act
	bailRemap      = "fault_remap"     // the request hits a remapped bad sector
	bailDegraded   = "fault_degraded"  // the request falls in a degradation window
)

// serviceRun walks events[run.Start:run.End] — a compiled run of
// request events — through the steady-state fast path, servicing
// requests back to back from index i until it reaches the run's end
// or encounters an event it cannot batch: a disk that is not plainly
// spinning, a policy decision point (per the horizon), or a
// fault-plan hit (remap or degradation window). It returns the index
// of the first unprocessed event and the updated clock; the caller
// services one event through the general path and re-enters. A
// bail-out is recorded on the run's event log, if any, with its
// reason.
//
// The fast path performs, per request, exactly the floating-point
// operations of the general path (Machine.advance + ServiceBlock) in
// the same order, with the per-(rpm, size) constants cached. The
// only eliminated float operations are ones that cannot change
// state: the WaitMS += 0 accumulation (start always equals the issue
// time here) and the policy's no-op BeforeService comparisons.
// Results are therefore bit-identical to the general path, which the
// differential tests enforce (batch_diff_test.go on random traces,
// internal/core on the paper's workloads).
//
// Every configuration takes this one loop. What varies is decided
// once per call: guarded runs (a fault plan or a policy horizon)
// check each request out of line before servicing it, and hooked
// runs (a collector, an event log, a timeline, idle-period recording
// or a per-request AfterService) observe each serviced request in one
// block after its arithmetic.
func (m *Machine) serviceRun(events []trace.Event, i int, run *trace.Run, clock float64, hz Horizon, pol Policy) (int, float64) {
	sc := m.batchScratchFor(len(m.disks))
	guarded := m.faults != nil || hz.NoOpBefore != nil
	hooked := m.obs != nil || m.ev != nil || m.recTimeline || m.recIdles || hz.AfterPerRequest
	hi := run.End
	// Runs compiled as uniform let the loop skip the per-event gap,
	// size and disk loads (the branches predict perfectly either way).
	uniformGap, gapMS := run.GapMS >= 0, run.GapMS
	uniformBytes, runBytes := run.Bytes != 0, run.Bytes
	runDisk, pat, start := run.Disk, run.Disks, run.Start
	for i < hi {
		ev := &events[i]
		d := runDisk
		if pat != nil {
			d = int(pat[i-start])
		} else if d < 0 {
			d = ev.Req.Disk
		}
		s := &m.disks[d]
		gap := gapMS
		if !uniformGap {
			gap = ev.GapMS
		}
		t := clock + gap
		if s.status != StSpinning || s.accT != s.idleFrom {
			// A power op or spin-up is in flight on this disk; the
			// general path resolves it (and pays any wait).
			m.noteBailout(d, t, bailTransition)
			return i, clock
		}
		if guarded {
			if reason := m.batchGuard(ev, d, s, t, hz); reason != "" {
				m.noteBailout(d, t, reason)
				return i, clock
			}
		}
		bytes := runBytes
		if !uniformBytes {
			bytes = ev.Req.Bytes
		}
		c := &sc[d]
		if c.rpm != s.rpm || c.bytes != bytes {
			c.refresh(m, s.rpm, bytes)
		}
		from := s.idleFrom
		idleLen := t - from
		if idleLen > 0 {
			// Machine.advance's StSpinning branch for [accT, t].
			e := c.idleE
			if idleLen != c.idleLen {
				e = c.pwIdle * idleLen / 1e3
				c.idleLen, c.idleE = idleLen, e
			}
			s.stats.EnergyJ += e
			s.stats.IdleEnergyJ += e
			s.stats.IdleMS += idleLen
			s.resid[c.residIdx] += idleLen
		}
		// ServiceBlock's spinning steady state: start == t, no wait.
		svc := c.svc
		s.stats.EnergyJ += c.addActJ
		s.stats.ActiveEnergyJ += c.addActJ
		s.stats.ActiveMS += svc
		s.resid[c.residIdx] += svc
		s.stats.Requests++
		end := t + svc
		s.accT = end
		s.idleFrom = end
		clock = end
		i++
		if hooked {
			// What the general path reports for the same request, in
			// its order: the idle period ServiceBlock recorded, the
			// idle span advance committed, then the service
			// ServiceBlock performed.
			if m.recIdles {
				s.idles = append(s.idles, IdlePeriod{StartMS: from, LenMS: idleLen})
			}
			if idleLen > 0 {
				s.record(m.recTimeline, from, t, StSpinning, s.rpm, c.pwIdle, false)
				if m.obs != nil {
					m.obs.ObserveResidency(d, obs.StateIdle, s.rpm, idleLen)
				}
			}
			if m.obs != nil {
				m.obs.ObserveResidency(d, obs.StateService, s.rpm, svc)
				m.obs.ObserveRequest(d, svc, 0, idleLen)
			}
			s.record(m.recTimeline, t, end, StSpinning, s.rpm, c.pwAct, true)
			if m.ev != nil {
				// Keep the period-start energy snapshot current (the
				// next idle period on d starts here); see events.go.
				m.evd[d].baseJ = s.stats.EnergyJ
			}
			if hz.AfterPerRequest {
				// The controller may act on any disk (e.g. DRPM's
				// restore sweep); the per-disk status and cache checks
				// above pick that up on the next iteration.
				m.afterService(pol, d, end, end-t)
			}
		}
	}
	return i, clock
}

// batchGuard returns why the request ev to disk d at time t must take
// the general path — the policy may act before it, or it hits a fault
// — or "" when the fast path may serve it. Every check is pure.
func (m *Machine) batchGuard(ev *trace.Event, d int, s *dstate, t float64, hz Horizon) string {
	if hz.NoOpBefore != nil && !hz.NoOpBefore(d, s.idleFrom, t, s.rpm) {
		return bailPolicy
	}
	if m.faults != nil {
		if ev.Req.Block >= 0 && m.faults.Remapped(d, ev.Req.Block) {
			return bailRemap
		}
		if factor, _ := m.faults.Degraded(d, t); factor > 1 {
			return bailDegraded
		}
	}
	return ""
}
