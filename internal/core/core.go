// Package core wires the compiler side (analysis, transformation,
// power-call insertion, trace generation) to the simulator side
// (policies, disk model) into the pipelines the paper evaluates: it
// prepares a program on a disk subsystem, runs it under any of the
// seven power-management schemes of Section 4.2, and applies the
// code/layout versions of Section 6.
package core

import (
	"fmt"
	"sync"

	"sdpm/internal/cycles"
	"sdpm/internal/dap"
	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/insert"
	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/oracle"
	"sdpm/internal/policy"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
	"sdpm/internal/xform"
)

// Scheme names a disk power management scheme of Section 4.2.
type Scheme string

// The seven evaluated schemes.
const (
	Base   Scheme = "Base"
	TPM    Scheme = "TPM"
	ITPM   Scheme = "ITPM"
	DRPM   Scheme = "DRPM"
	IDRPM  Scheme = "IDRPM"
	CMTPM  Scheme = "CMTPM"
	CMDRPM Scheme = "CMDRPM"
)

// AllSchemes returns the schemes in the paper's Figure 3 order.
func AllSchemes() []Scheme {
	return []Scheme{Base, TPM, ITPM, DRPM, IDRPM, CMTPM, CMDRPM}
}

// Version names a code/layout version of Section 6.
type Version string

// The evaluated code versions.
const (
	VOrig Version = "orig"
	VLF   Version = "LF"
	VTL   Version = "TL"
	VLFDL Version = "LF+DL"
	VTLDL Version = "TL+DL"
	// VIC is loop interchange — an extension beyond the paper's two
	// transformations, implementing its remark that other loop
	// transformations can be adapted to disk layouts.
	VIC Version = "IC"
)

// AllVersions returns the code versions in the paper's order.
func AllVersions() []Version {
	return []Version{VOrig, VLF, VTL, VLFDL, VTLDL}
}

// ExtendedVersions returns the paper's versions plus the extensions.
func ExtendedVersions() []Version {
	return append(AllVersions(), VIC)
}

// Config collects every knob of the experimental platform.
type Config struct {
	// Disk holds the Table 1 disk parameters.
	Disk disk.Params
	// NumDisks is the subsystem size; the default striping uses all
	// of them (Table 1's stripe factor).
	NumDisks int
	// UnitBytes is the default stripe unit size.
	UnitBytes int64
	// CacheUnits is the buffer cache capacity in stripe units.
	CacheUnits int
	// Model is the cycle/jitter model (nil: exact 750 MHz).
	Model *cycles.Model
	// PowerCallOverheadMS is Tm of Equation 1.
	PowerCallOverheadMS float64
	// DisablePreactivation drops pre-activation calls (ablation).
	DisablePreactivation bool
	// NoCache disables the buffer cache (ablation).
	NoCache bool
	// DistanceAwareSeek replaces the average-seek model with the
	// square-root seek curve over actual head movement.
	DistanceAwareSeek bool
	// Faults configures deterministic fault injection (spin-up
	// failures, bad-sector remaps, degradation windows); the zero
	// value injects nothing.
	Faults faults.Config
	// FaultSeed seeds the fault plan; the same seed always yields the
	// same fault schedule, at any worker count.
	FaultSeed int64
	// Audit verifies the simulator's conservation invariants after
	// every run (see sim.Audit), failing the run with a structured
	// report on any violation. Auditing never changes results, so the
	// flag is deliberately excluded from Fingerprint — audited and
	// unaudited runs share cache entries and journal records.
	Audit bool
}

// DefaultConfig returns the Table 1 configuration.
func DefaultConfig() Config {
	return Config{
		Disk:                disk.DefaultParams(),
		NumDisks:            8,
		UnitBytes:           65536,
		CacheUnits:          16,
		PowerCallOverheadMS: sim.DefaultPowerCallOverheadMS,
	}
}

func (c *Config) model() *cycles.Model {
	if c.Model != nil {
		return c.Model
	}
	return cycles.New(cycles.DefaultClockHz, 0, 0)
}

// Fingerprint returns a canonical string covering every field that
// influences Prepare and simulation, resolving the cycle model to its
// values (two configs with distinct but value-equal *cycles.Model
// fingerprint identically). It is the configuration half of the
// memoization key used by Cache.
func (c *Config) Fingerprint() string {
	m := c.model()
	return fmt.Sprintf("disk{%+v} nd=%d unit=%d cache=%d model{%g,%g,%g,%d} tm=%g nopre=%t nocache=%t distseek=%t faults{%s seed=%d}",
		c.Disk, c.NumDisks, c.UnitBytes, c.CacheUnits,
		m.ClockHz, m.NoisePct, m.BiasPct, m.Seed,
		c.PowerCallOverheadMS, c.DisablePreactivation, c.NoCache, c.DistanceAwareSeek,
		faults.FormatSpec(c.Faults), c.FaultSeed)
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if err := c.Disk.Validate(); err != nil {
		return err
	}
	if c.NumDisks <= 0 {
		return fmt.Errorf("core: non-positive disk count")
	}
	if c.UnitBytes <= 0 || c.UnitBytes%layout.BlockSize != 0 {
		return fmt.Errorf("core: bad stripe unit %d", c.UnitBytes)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// faultPlan derives the configuration's fault plan (nil when fault
// injection is disabled).
func (c *Config) faultPlan() (*faults.Plan, error) {
	if !c.Faults.Enabled() {
		return nil, nil
	}
	return faults.New(c.FaultSeed, c.NumDisks, c.Faults)
}

// Instance is a program prepared on a disk subsystem: placed,
// analyzed, and ready to run under any scheme.
//
// An Instance is a named view over the compiler stages (see stages.go):
// its name, program, configuration, fault plan and collectors are its
// own, while the sites, traces, plans and compiled forms may be shared
// with every other instance whose stage inputs have the same content,
// or whose program yields the same request stream (Cache shares them;
// Prepare builds fresh ones). Every trace an Instance hands out
// carries its own name, so results, event logs and audit reports
// never show another instance's.
//
// An Instance is safe for concurrent use: the derived artifacts are
// built once under a lock, and Run is re-entrant — all per-run mutable
// state (the disk state machine, the policy) is freshly allocated
// inside sim.Run, so any number of schemes can be simulated on one
// Instance at once.
//
// Unobserved runs (no Obs, no Events) are memoized on the trace stage
// by scheme and run-only settings, so a run repeated on this instance
// or on any other viewing the same stage simulates once; see Run.
type Instance struct {
	Name    string
	Program *ir.Program
	Sites   []tracegen.Site
	Cfg     Config
	// Obs, when non-nil, receives metrics from every simulation run
	// on this instance. Set it before the first Run (Cache sets it
	// automatically from its own collector). It is deliberately not
	// part of the memoization key: collectors observe runs, they do
	// not change them.
	Obs *obs.Collector
	// Events, when non-nil, receives decision-provenance events from
	// every simulation run on this instance. Like Obs it is set before
	// the first Run and excluded from the memoization key: the event
	// log observes runs without changing them (sim.Run guarantees
	// bit-identical results with and without a log attached).
	Events *events.Log

	// faultPlan is the derived fault schedule (nil when injection is
	// disabled); it is immutable and shared by every run.
	faultPlan *faults.Plan
	// stages holds the compiler artifacts this instance views.
	stages *traceStage

	mu        sync.Mutex // guards the trace headers below
	baseTrace *trace.Trace
	instr     map[insert.Mode]*instrumented
}

// Prepare places the program's arrays (staggered default striping,
// with per-array overrides from a layout-aware transformation),
// extracts the request sites, and returns a runnable instance over
// freshly built compiler stages.
func Prepare(name string, p *ir.Program, cfg Config, overrides map[string]layout.Striping) (*Instance, error) {
	return prepare(nil, name, p, cfg, overrides)
}

// prepare builds the named view over the stages stagesFor(c, ...)
// returns.
func prepare(c *Cache, name string, p *ir.Program, cfg Config, overrides map[string]layout.Striping) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	plan, err := cfg.faultPlan()
	if err != nil {
		return nil, err
	}
	st, err := stagesFor(c, p, &cfg, overrides)
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name: name, Program: p, Sites: st.sites, Cfg: cfg,
		faultPlan: plan,
		stages:    st,
		instr:     make(map[insert.Mode]*instrumented),
	}, nil
}

// view returns this instance's header over a stage trace: its own
// name over the shared event slice and file table.
func (in *Instance) view(t *trace.Trace) *trace.Trace {
	return &trace.Trace{Program: in.Name, NumDisks: t.NumDisks, Files: t.Files, Events: t.Events}
}

// BaseTrace returns (and caches) the uninstrumented runtime trace.
// The returned trace is shared and must be treated as read-only
// (sim.Run never mutates its input).
func (in *Instance) BaseTrace() *trace.Trace {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.baseTrace == nil {
		in.baseTrace = in.view(in.stages.baseTrace())
	}
	return in.baseTrace
}

// Instrumented returns (and caches) the compiler-instrumented trace
// and plan for the given mode. Like BaseTrace, the results are
// shared and read-only.
func (in *Instance) Instrumented(mode insert.Mode) (*trace.Trace, *insert.Plan, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if got, ok := in.instr[mode]; ok {
		return got.tr, got.plan, nil
	}
	tr, plan, err := in.stages.instrumented(mode)
	if err != nil {
		return nil, nil, err
	}
	got := &instrumented{tr: in.view(tr), plan: plan}
	in.instr[mode] = got
	return got.tr, got.plan, nil
}

// Compiled returns (and caches) the run-length compiled form of a
// trace owned by this instance (the base trace or an instrumented
// one), so every scheme sharing a trace's events — on this instance or
// on any other viewing the same stage — shares its compiled form.
func (in *Instance) Compiled(tr *trace.Trace) *trace.Compiled {
	return in.stages.compile(tr)
}

// Run simulates the instance under the given scheme. A Base result
// carries the run's idle periods (Result.Idles, read by the Table 3
// oracle); other schemes' results do not.
//
// Without a collector or event log attached, the result is memoized
// on the instance's trace stage: a repeated run returns the first
// run's stats, which are shared and must be treated as read-only,
// under a Result header of its own (Program, Scheme). Observed runs
// simulate on every call, so each one is counted and logged.
func (in *Instance) Run(s Scheme) (*sim.Result, error) {
	if in.Obs != nil || in.Events != nil {
		return in.simulate(s)
	}
	shared, err := in.stages.run(keyRun(s, &in.Cfg), func() (*sim.Result, error) { return in.simulate(s) })
	if err != nil {
		return nil, err
	}
	res := *shared
	res.Program, res.Scheme = in.Name, string(s)
	return &res, nil
}

// simulate runs the instance under scheme s.
func (in *Instance) simulate(s Scheme) (*sim.Result, error) {
	tr, cfg, err := in.runInput(s)
	if err != nil {
		return nil, err
	}
	in.stages.counts.runs.Add(1)
	res, err := sim.Run(tr, cfg)
	if err != nil {
		return nil, err
	}
	res.Scheme = string(s)
	res.Program = in.Name
	return res, nil
}

// runInput returns the trace and simulator configuration Run
// simulates for scheme s, with the trace's memoized compiled form.
func (in *Instance) runInput(s Scheme) (*trace.Trace, sim.Config, error) {
	cfg := sim.Config{
		Disk:                in.Cfg.Disk,
		PowerCallOverheadMS: in.Cfg.PowerCallOverheadMS,
		DistanceAwareSeek:   in.Cfg.DistanceAwareSeek,
		Obs:                 in.Obs,
		Events:              in.Events,
		SchemeLabel:         string(s),
		Faults:              in.faultPlan,
		Audit:               in.Cfg.Audit,
	}
	tr := in.BaseTrace()
	switch s {
	case Base:
		cfg.Policy = policy.NewBase()
		cfg.RecordIdles = true
	case TPM:
		cfg.Policy = policy.NewTPM(in.Cfg.Disk, 0)
	case ITPM:
		cfg.Policy = policy.NewITPM(in.Cfg.Disk)
	case DRPM:
		cfg.Policy = policy.NewDRPM(in.Cfg.Disk, in.Cfg.NumDisks)
	case IDRPM:
		cfg.Policy = policy.NewIDRPM(in.Cfg.Disk)
	case CMTPM, CMDRPM:
		mode := insert.ModeTPM
		if s == CMDRPM {
			mode = insert.ModeDRPM
		}
		itr, _, err := in.Instrumented(mode)
		if err != nil {
			return nil, sim.Config{}, err
		}
		tr = itr
	default:
		return nil, sim.Config{}, fmt.Errorf("core: unknown scheme %q", s)
	}
	cfg.Compiled = in.Compiled(tr)
	return tr, cfg, nil
}

// RunOpen replays the instance's trace in open-loop (arrival-driven,
// per-disk FIFO) mode under a reactive or oracle scheme. The
// compiler-managed schemes are closed-loop by construction (their
// power calls are program-order events), so they are rejected here.
func (in *Instance) RunOpen(s Scheme) (*sim.Result, error) {
	cfg := sim.Config{
		Disk:              in.Cfg.Disk,
		DistanceAwareSeek: in.Cfg.DistanceAwareSeek,
		Obs:               in.Obs,
		Events:            in.Events,
		SchemeLabel:       string(s) + "/open",
		Faults:            in.faultPlan,
		Audit:             in.Cfg.Audit,
	}
	switch s {
	case Base:
		cfg.Policy = policy.NewBase()
	case TPM:
		cfg.Policy = policy.NewTPM(in.Cfg.Disk, 0)
	case ITPM:
		cfg.Policy = policy.NewITPM(in.Cfg.Disk)
	case DRPM:
		cfg.Policy = policy.NewDRPM(in.Cfg.Disk, in.Cfg.NumDisks)
	case IDRPM:
		cfg.Policy = policy.NewIDRPM(in.Cfg.Disk)
	default:
		return nil, fmt.Errorf("core: open-loop replay supports reactive/oracle schemes, not %q", s)
	}
	res, err := sim.RunOpenLoop(in.BaseTrace(), cfg)
	if err != nil {
		return nil, err
	}
	res.Program = in.Name
	return res, nil
}

// Mispredictions runs the Table 3 analysis: the CMDRPM plan's speed
// choices versus the oracle-optimal choices for the actual idle
// periods of a base run.
func (in *Instance) Mispredictions() (oracle.MispredictStats, error) {
	_, plan, err := in.Instrumented(insert.ModeDRPM)
	if err != nil {
		return oracle.MispredictStats{}, err
	}
	base, err := in.Run(Base)
	if err != nil {
		return oracle.MispredictStats{}, err
	}
	return oracle.Mispredictions(plan, base.Idles, in.Cfg.Disk)
}

// EstimateEnergy returns the compiler's energy prediction for the
// given scheme (Base, CMTPM, or CMDRPM) on the predicted timeline.
func (in *Instance) EstimateEnergy(s Scheme) (float64, error) {
	switch s {
	case Base:
		_, plan, err := in.Instrumented(insert.ModeDRPM)
		if err != nil {
			return 0, err
		}
		return plan.EstimateBaseEnergyJ(in.Cfg.Disk, in.Sites), nil
	case CMTPM, CMDRPM:
		mode := insert.ModeTPM
		if s == CMDRPM {
			mode = insert.ModeDRPM
		}
		_, plan, err := in.Instrumented(mode)
		if err != nil {
			return 0, err
		}
		return plan.EstimateEnergyJ(in.Cfg.Disk, in.Sites), nil
	default:
		return 0, fmt.Errorf("core: no compiler estimate for scheme %q", s)
	}
}

// SelectScheme performs the paper's strategy selection: the compiler
// instruments the program for both TPM and DRPM, estimates each
// plan's energy, and returns the cheaper compiler-managed scheme
// together with its predicted energy.
func (in *Instance) SelectScheme() (Scheme, float64, error) {
	tpm, err := in.EstimateEnergy(CMTPM)
	if err != nil {
		return "", 0, err
	}
	drpm, err := in.EstimateEnergy(CMDRPM)
	if err != nil {
		return "", 0, err
	}
	if tpm < drpm {
		return CMTPM, tpm, nil
	}
	return CMDRPM, drpm, nil
}

// NestRequests returns the per-nest request counts, the disk-energy
// cost metric handed to the layout-aware tiler.
func (in *Instance) NestRequests() []float64 {
	return nestRequests(in.Program, in.Sites)
}

// DAP builds the disk access pattern of the instance on the
// compiler's predicted timeline.
func (in *Instance) DAP(coalesceMS float64) *dap.DAP {
	p := in.Cfg.Disk
	svc := func(b int64) float64 { return p.ServiceTimeMS(p.MaxRPM, b) }
	issue := tracegen.PredictedIssueMS(in.Sites, in.Cfg.model(), svc)
	return dap.Build(in.Sites, issue, in.Cfg.NumDisks, svc, coalesceMS)
}

// ApplyVersion applies a Section 6 code/layout version to a program.
// It returns the transformed program, the per-array striping
// overrides the transformation determined (nil for the oblivious
// versions), and whether the transformation applied at all — the
// compiler leaves a program unchanged when it finds nothing to
// transform (no fissionable nests; no tileable nest; layouts already
// conforming), which is exactly how wupwise/galgel behave under LF
// and swim/mgrid/galgel under TL+DL in the paper.
func ApplyVersion(p *ir.Program, v Version, cfg Config, nestCost []float64) (*ir.Program, map[string]layout.Striping, bool, error) {
	switch v {
	case VOrig:
		return p, nil, true, nil
	case VLF:
		if !xform.Fissionable(p) {
			return p, nil, false, nil
		}
		return xform.Fission(p), nil, true, nil
	case VLFDL:
		if !xform.Fissionable(p) {
			return p, nil, false, nil
		}
		fp := xform.ClusterByGroup(xform.Fission(p))
		groups := xform.ArrayGroups(fp)
		if len(groups) < 2 || len(groups) > cfg.NumDisks {
			// Nothing to separate, or not enough disks to give every
			// group a disjoint set: the compiler declines.
			return p, nil, false, nil
		}
		st, err := xform.AssignGroupDisks(groups, cfg.NumDisks, cfg.UnitBytes)
		if err != nil {
			return nil, nil, false, err
		}
		return fp, st, true, nil
	case VTL:
		// Layout-oblivious tiling targets the compute-costliest nest
		// with conventional row-panel tiles (a CPU-cache oriented
		// tiler knows nothing of disk layouts).
		res, err := xform.Tile(p, xform.TileOptions{
			UnitBytes: cfg.UnitBytes, NumDisks: cfg.NumDisks, LayoutAware: false,
			PanelTiles: true,
		})
		if err != nil {
			return p, nil, false, nil
		}
		return res.Program, nil, true, nil
	case VTLDL:
		res, err := xform.Tile(p, xform.TileOptions{
			UnitBytes: cfg.UnitBytes, NumDisks: cfg.NumDisks, LayoutAware: true,
			NestCost: nestCost,
		})
		if err != nil {
			return p, nil, false, nil
		}
		if len(res.Transposed) == 0 {
			// The access patterns already conform to the layouts:
			// the transformation has nothing to repair.
			return p, nil, false, nil
		}
		return res.Program, res.Stripings, true, nil
	case VIC:
		ip, changed := xform.Interchange(p)
		if len(changed) == 0 {
			return p, nil, false, nil
		}
		return ip, nil, true, nil
	default:
		return nil, nil, false, fmt.Errorf("core: unknown version %q", v)
	}
}

// PrepareVersion applies the version to the program and prepares the
// result. The returned bool reports whether the transformation
// actually applied. nestCost may be nil; it is computed from the
// original program when the version needs it.
func PrepareVersion(name string, p *ir.Program, v Version, cfg Config) (*Instance, bool, error) {
	var nestCost []float64
	if v == VTLDL {
		orig, err := Prepare(name, p, cfg, nil)
		if err != nil {
			return nil, false, err
		}
		nestCost = orig.NestRequests()
	}
	tp, overrides, applied, err := ApplyVersion(p, v, cfg, nestCost)
	if err != nil {
		return nil, false, err
	}
	in, err := Prepare(name+"/"+string(v), tp, cfg, overrides)
	if err != nil {
		return nil, false, err
	}
	return in, applied, nil
}
