package sim

import (
	"fmt"

	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/trace"
)

// Policy is a reactive or oracle power-management policy. The
// compiler-managed schemes need no Policy: their decisions arrive as
// power-op events in the trace.
type Policy interface {
	// Name identifies the policy in results.
	Name() string
	// BeforeService runs when a request is about to be issued to
	// disk d at time t. The idle period ending now spans
	// [m.IdleFrom(d), t]; the policy may apply retroactive actions
	// anywhere inside it.
	BeforeService(m *Machine, d int, t float64)
	// AfterService runs when the request completes at time end with
	// the given response time (wait + service).
	AfterService(m *Machine, d int, end, responseMS float64)
	// Finish runs once after the last event, before final energy
	// accounting; endT is the program completion time. Oracle
	// policies exploit each disk's trailing idle period here.
	Finish(m *Machine, endT float64)
}

// TriggerPolicy is optionally implemented by policies to name the
// decision trigger stamped on their provenance events (one of the
// events.Trig* constants). Policies without it are labelled with the
// generic "policy" trigger.
type TriggerPolicy interface {
	DecisionTrigger() string
}

// Config configures a simulation run.
type Config struct {
	// Disk supplies the disk model parameters.
	Disk disk.Params
	// Policy is the reactive/oracle policy; nil means no power
	// management beyond the trace's explicit power ops.
	Policy Policy
	// PowerCallOverheadMS is Tm of the paper's Equation 1: the
	// application-side overhead of one explicit power-management
	// call.
	PowerCallOverheadMS float64
	// IgnorePowerOps drops the trace's power-op events (used to run
	// an instrumented trace under a reactive baseline).
	IgnorePowerOps bool
	// DistanceAwareSeek replaces the average-seek model with the
	// square-root seek curve over the head's actual movement
	// (requests carry start block numbers).
	DistanceAwareSeek bool
	// RecordTimeline collects per-disk state timelines into the
	// result (Result.Timelines).
	RecordTimeline bool
	// RecordIdles collects every disk's inter-request idle periods,
	// plus its trailing one, into the result (Result.Idles). The lists
	// hold one entry per request, so they are off by default.
	RecordIdles bool
	// Audit verifies the conservation invariants of every run (see
	// Audit): residency and energy-breakdown conservation, the
	// timeline power integral, idle-period sanity, and state-machine
	// transition legality. A violated invariant fails the run with a
	// structured *AuditError instead of returning a
	// plausible-but-wrong result. The audit records an internal
	// timeline and idle-period lists even when RecordTimeline and
	// RecordIdles are off (the result's Timelines and Idles fields
	// stay empty in that case).
	Audit bool
	// Obs, when non-nil, receives metric events (request latencies,
	// residency, power ops, spin-up mispredictions). A nil Obs adds no
	// overhead beyond one branch per emit point. The run stages its
	// observations in an obs.Tally, so they reach the collector every
	// obs.ChunkRequests requests and in full by the time Run returns;
	// an attached collector allocates nothing per event.
	Obs *obs.Collector
	// Faults, when non-nil, injects the plan's deterministic fault
	// schedule (spin-up failures with bounded retry, bad-sector
	// remaps, degradation windows) into the run. The plan must cover
	// at least the trace's disk count.
	Faults *faults.Plan
	// Compiled is the trace's run-length compiled form (see
	// trace.Compile), enabling the batched steady-state executor.
	// When nil (and batching is not disabled or ineligible), Run
	// compiles the trace itself; callers that run many schemes over
	// one trace should pass a memoized form instead. A Compiled built
	// from a different trace (see trace.Compiled.For) is ignored: Run
	// validates and compiles the trace it was given.
	Compiled *trace.Compiled
	// DisableBatch forces the general per-request path even when a
	// compiled form is available. The general path is the reference
	// the differential tests and the *NoBatch benchmarks compare the
	// batched executor against; results are bit-identical either way.
	DisableBatch bool
	// Events, when non-nil, receives decision-provenance events
	// (power decisions with trigger and inputs, later resolved with
	// the measured idle and energy regret; spin-up misses; fault
	// lifecycle; batch bail-out reasons). Like Obs, a nil log costs
	// one branch per site; an attached log changes no result bit. The
	// run stages its events in an events.Batch, so they reach the log
	// a chunk at a time and in full by the time Run returns.
	Events *events.Log
	// SchemeLabel overrides the scheme name stamped on events (the
	// engine labels runs by its scheme enum, which can differ from
	// the policy's own name). Empty uses Policy.Name() or "embedded".
	SchemeLabel string
}

// DefaultPowerCallOverheadMS is the default power-management call
// overhead (Tm).
const DefaultPowerCallOverheadMS = 0.05

// Result reports one simulation run.
type Result struct {
	Program string
	Scheme  string
	// ExecMS is the application completion time.
	ExecMS float64
	// EnergyJ is the total disk-subsystem energy.
	EnergyJ float64
	// Disks holds per-disk statistics.
	Disks []DiskStats
	// Idles holds, per disk, every inter-request idle period plus
	// the trailing idle period, when Config.RecordIdles was set.
	Idles [][]IdlePeriod
	// Requests is the number of I/O requests serviced.
	Requests int
	// PowerOps is the number of explicit power-management calls
	// executed.
	PowerOps int
	// TotalWaitMS is the total request wait (readiness) time — the
	// source of any execution-time penalty.
	TotalWaitMS float64
	// Timelines holds the per-disk state timelines when
	// Config.RecordTimeline was set.
	Timelines [][]Segment
}

// runExec carries the mutable cursor state of one simulation's event
// walk. Both the per-request loop and the batched executor's
// bail-outs go through its step method, so there is exactly one
// implementation of general event semantics.
type runExec struct {
	m        *Machine
	tr       *trace.Trace
	cfg      *Config
	clock    float64
	powerOps int
}

// step executes one event through the general path.
func (e *runExec) step(i int) error {
	ev := &e.tr.Events[i]
	e.clock += ev.GapMS
	switch ev.Kind {
	case trace.EvPowerOp:
		if e.cfg.IgnorePowerOps {
			return nil
		}
		op := &ev.Op
		if e.m.ev != nil {
			// Trace-embedded ops are the compiler's hints; they carry
			// its idle prediction into the decision event.
			e.m.setTrigger(events.TrigHint, op.PredictedIdleMS)
		}
		switch op.Kind {
		case trace.OpSpinDown:
			e.m.SpinDownAt(op.Disk, e.clock)
		case trace.OpSpinUp:
			e.m.SpinUpAt(op.Disk, e.clock)
		case trace.OpSetRPM:
			e.m.SetRPMAt(op.Disk, e.clock, op.RPM)
		}
		if e.m.ev != nil {
			e.m.restoreTrigger()
		}
		e.powerOps++
		e.clock += e.cfg.PowerCallOverheadMS
	case trace.EvRequest:
		d := ev.Req.Disk
		if e.cfg.Policy != nil {
			e.cfg.Policy.BeforeService(e.m, d, e.clock)
		}
		end, err := e.m.ServiceBlock(d, e.clock, ev.Req.Bytes, ev.Req.Block)
		if err != nil {
			return err
		}
		if e.cfg.Policy != nil {
			e.m.afterService(e.cfg.Policy, d, end, end-e.clock)
		}
		e.clock = end
	}
	return nil
}

// Run simulates the trace under the configuration and returns the
// result.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	if cfg.PowerCallOverheadMS < 0 {
		return nil, fmt.Errorf("sim: negative power call overhead")
	}
	// Batching eligibility: the distance-aware seek model carries
	// per-request head state the fast path does not track, and a
	// policy must describe its decision horizon to be skipped over.
	var hz Horizon
	batching := !cfg.DisableBatch && !cfg.DistanceAwareSeek
	if cfg.Policy != nil {
		if hp, ok := cfg.Policy.(HorizonPolicy); ok {
			hz = hp.Horizon()
		} else {
			batching = false
		}
	}
	// A compiled form of this very trace carries a Validated flag from
	// compile time; trusting it saves a full trace walk per run (the
	// engine runs many schemes over one memoized trace).
	comp := cfg.Compiled
	if !comp.For(tr) {
		comp = nil
	}
	m, err := startRun(tr, &cfg, comp != nil && comp.Validated, "")
	if err != nil {
		return nil, err
	}
	defer m.obs.Commit()
	defer m.ev.Commit()
	if batching && comp == nil {
		comp = trace.Compile(tr)
	}
	if m.recIdles {
		// Size the per-disk idle-period lists exactly (one idle period
		// per request plus the trailing one) so the event walk never
		// grows them.
		if comp != nil {
			m.reserveIdles(comp.PerDisk)
		} else {
			m.reserveIdles(tr.PerDiskRequests())
		}
	}
	e := runExec{m: m, tr: tr, cfg: &cfg}
	i, ri := 0, 0
	for i < len(tr.Events) {
		if batching && ri < len(comp.Runs) && comp.Runs[ri].Start == i {
			run := &comp.Runs[ri]
			ri++
			for i < run.End {
				i, e.clock = m.serviceRun(tr.Events, i, run, e.clock, hz, cfg.Policy)
				if i < run.End {
					// One event through the general path (a policy
					// action, fault hit, or transitional disk state),
					// then back to the fast loop.
					if err := e.step(i); err != nil {
						return nil, err
					}
					i++
				}
			}
			continue
		}
		if err := e.step(i); err != nil {
			return nil, err
		}
		i++
	}
	return m.result(tr, &cfg, e.clock, e.powerOps, 0, "")
}

// startRun builds and wires the machine for one run of tr under cfg,
// shared by Run and RunOpenLoop. It validates the disk model, and the
// trace unless it is already known to be valid; turns on the seek
// model and timeline cfg asks for; and attaches the fault plan, the
// collector and the event log. suffix marks the replay mode in scheme
// labels ("" for closed loop). Every check that can fail comes before
// the collector and the log are attached, so a rejected run is neither
// counted nor left holding a tally or batch. On success the caller
// must commit m.obs and m.ev on every return path.
func startRun(tr *trace.Trace, cfg *Config, validated bool, suffix string) (*Machine, error) {
	if err := cfg.Disk.Validate(); err != nil {
		return nil, err
	}
	if !validated {
		if err := tr.Validate(); err != nil {
			return nil, err
		}
	}
	m := NewMachine(tr.NumDisks, cfg.Disk)
	if cfg.DistanceAwareSeek {
		m.EnableDistanceSeek(cfg.Disk.CapacityBlocks())
	}
	if cfg.RecordTimeline || cfg.Audit {
		// The audit needs the timeline for its power-integral and
		// transition-legality checks even when the caller did not ask
		// to keep it.
		m.EnableTimeline()
	}
	if cfg.RecordIdles || cfg.Audit {
		// Likewise the idle periods for its idle-period check.
		m.EnableIdles()
	}
	if cfg.Faults != nil {
		if cfg.Faults.NumDisks() < tr.NumDisks {
			return nil, fmt.Errorf("sim: fault plan covers %d disks, trace uses %d", cfg.Faults.NumDisks(), tr.NumDisks)
		}
		m.AttachFaults(cfg.Faults)
	}
	if cfg.Obs != nil {
		cfg.Obs.CountSimRun()
		cfg.Obs.EnsureDisks(tr.NumDisks, cfg.Disk.MinRPM, cfg.Disk.RPMStep, cfg.Disk.NumLevels())
		m.AttachCollector(cfg.Obs)
	}
	if cfg.Events != nil {
		label := cfg.SchemeLabel
		if label == "" {
			label = schemeName(cfg.Policy, suffix)
		}
		polTrig := ""
		if tp, ok := cfg.Policy.(TriggerPolicy); ok {
			polTrig = tp.DecisionTrigger()
		} else if cfg.Policy != nil {
			polTrig = "policy"
		}
		m.AttachEvents(cfg.Events, tr.Program, label, polTrig, cfg.Disk.TPMBreakEvenMS())
	}
	return m, nil
}

// result ends a run at endT, shared by Run and RunOpenLoop: it runs
// the policy's Finish hook, closes the machine's accounting, and
// assembles and (under cfg.Audit) audits the result. extraWaitMS is
// waiting the machine does not see (open-loop queueing).
func (m *Machine) result(tr *trace.Trace, cfg *Config, endT float64, powerOps int, extraWaitMS float64, suffix string) (*Result, error) {
	if cfg.Policy != nil {
		m.finishPolicy(cfg.Policy, endT)
	}
	stats, idles := m.Finish(endT)
	res := &Result{
		Program:  tr.Program,
		Scheme:   schemeName(cfg.Policy, suffix),
		ExecMS:   endT,
		Disks:    stats,
		Idles:    idles,
		PowerOps: powerOps,
	}
	if cfg.RecordTimeline || cfg.Audit {
		res.Timelines = m.Timelines()
	}
	for d := range stats {
		res.EnergyJ += stats[d].EnergyJ
		res.Requests += stats[d].Requests
		res.TotalWaitMS += stats[d].WaitMS
	}
	res.TotalWaitMS += extraWaitMS
	if cfg.Audit {
		if aerr := Audit(res, cfg.Disk, cfg.Faults != nil); aerr != nil {
			return nil, aerr
		}
		if !cfg.RecordTimeline {
			res.Timelines = nil
		}
		if !cfg.RecordIdles {
			res.Idles = nil
		}
	}
	return res, nil
}

// schemeName names a run's scheme: the policy's name, or "embedded"
// when no policy runs and the trace's own power ops (if any) drive
// the disks, so result tables and metric labels are never blank.
// suffix marks the replay mode.
func schemeName(pol Policy, suffix string) string {
	if pol == nil {
		return "embedded" + suffix
	}
	return pol.Name() + suffix
}
