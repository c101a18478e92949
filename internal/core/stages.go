package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sdpm/internal/cycles"
	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/insert"
	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
)

// The compiler side of preparation runs in two stages, each keyed by
// exactly the inputs it reads, so inputs that differ only in what a
// later stage (or the simulator alone) reads share the earlier work:
//
//   - sites: placement and the access-pattern walk through the buffer
//     cache. Reads the program, the layout overrides, NumDisks,
//     UnitBytes, CacheUnits and NoCache.
//   - traces: the base trace, the instrumented traces and plans, and
//     their run-length compiled forms. Reads the sites plus the disk
//     parameters, the cycle model's values and DisablePreactivation.
//
// Everything else in a Config (the instance name, PowerCallOverheadMS,
// DistanceAwareSeek, Faults, FaultSeed, Audit) only the simulator
// reads; an Instance carries it as a named view over the stages. A
// trace stage also memoizes the results of unobserved simulation runs
// (Instance.Run), keyed by the scheme and those run-only fields, so
// each distinct run over a stage simulates once.

// sitesKey identifies a sites stage's inputs.
type sitesKey struct {
	prog       *ir.Program
	overrides  string // overridesKey of the layout overrides
	numDisks   int
	unitBytes  int64
	cacheUnits int
	noCache    bool
}

// traceKey identifies a trace stage's inputs.
type traceKey struct {
	sites sitesKey
	disk  disk.Params
	model cycles.Model // by value: value-equal models share
	noPre bool
}

func keySites(p *ir.Program, cfg *Config, overrides map[string]layout.Striping) sitesKey {
	return sitesKey{
		prog: p, overrides: overridesKey(overrides),
		numDisks: cfg.NumDisks, unitBytes: cfg.UnitBytes,
		cacheUnits: cfg.CacheUnits, noCache: cfg.NoCache,
	}
}

func keyTrace(sk sitesKey, cfg *Config) traceKey {
	return traceKey{sites: sk, disk: cfg.Disk, model: *cfg.model(), noPre: cfg.DisablePreactivation}
}

// runKey identifies a simulation run over a trace stage: the scheme
// and every Config field only the simulator reads. The instance name
// is not in it; each caller stamps its own on the result.
type runKey struct {
	scheme    Scheme
	tm        float64 // PowerCallOverheadMS
	distSeek  bool
	faults    faults.Config
	faultSeed int64
	audit     bool
}

func keyRun(s Scheme, cfg *Config) runKey {
	return runKey{
		scheme: s, tm: cfg.PowerCallOverheadMS, distSeek: cfg.DistanceAwareSeek,
		faults: cfg.Faults, faultSeed: cfg.FaultSeed, audit: cfg.Audit,
	}
}

// overridesKey renders layout overrides canonically (sorted by array).
func overridesKey(overrides map[string]layout.Striping) string {
	if len(overrides) == 0 {
		return ""
	}
	names := make([]string, 0, len(overrides))
	for n := range overrides {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%+v;", n, overrides[n])
	}
	return b.String()
}

// siteStage is the first compiler stage's output: the placed subsystem
// and the request sites. Immutable once built.
type siteStage struct {
	sub   *layout.Subsystem
	sites []tracegen.Site
}

// buildSites places the program's arrays (staggered default striping,
// with per-array overrides from a layout-aware transformation) and
// extracts the request sites.
func buildSites(p *ir.Program, cfg *Config, overrides map[string]layout.Striping) (*siteStage, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sub, err := layout.NewSubsystem(cfg.NumDisks)
	if err != nil {
		return nil, err
	}
	for i, a := range p.Arrays {
		st := layout.Striping{StartDisk: i % cfg.NumDisks, Factor: cfg.NumDisks, UnitBytes: cfg.UnitBytes}
		if o, ok := overrides[a.Name]; ok {
			st = o
		}
		if err := sub.Place(a.Name, a.SizeBytes(), st); err != nil {
			return nil, err
		}
	}
	var sites []tracegen.Site
	if cfg.NoCache {
		sites, err = tracegen.SitesNoCache(p, sub)
	} else {
		sites, err = tracegen.Sites(p, sub, cfg.CacheUnits)
	}
	if err != nil {
		return nil, err
	}
	return &siteStage{sub: sub, sites: sites}, nil
}

// nestRequests returns the per-nest request counts of a site stream.
func nestRequests(p *ir.Program, sites []tracegen.Site) []float64 {
	out := make([]float64, len(p.Nests))
	for _, s := range sites {
		out[s.Nest]++
	}
	return out
}

// traceStage is the second compiler stage: the traces and plans
// derived from one site stage. Its artifacts are built lazily, once,
// and shared read-only by every Instance viewing the stage. Its traces
// carry no program name; each Instance hands out its own trace header
// over the shared Events and Files.
type traceStage struct {
	*siteStage
	numDisks int
	disk     disk.Params
	model    *cycles.Model
	noPre    bool

	mu       sync.Mutex // guards the lazy artifacts below
	base     *trace.Trace
	instr    map[insert.Mode]*instrumented
	compiled []*trace.Compiled
	runs     map[runKey]*runEntry
}

// runEntry memoizes one successful simulation run. Its result is
// shared read-only: callers get a copy of the header over its stats.
type runEntry struct {
	once sync.Once
	res  *sim.Result
	err  error
}

type instrumented struct {
	tr   *trace.Trace
	plan *insert.Plan
}

func newTraceStage(ss *siteStage, cfg *Config) *traceStage {
	return &traceStage{
		siteStage: ss, numDisks: cfg.NumDisks, disk: cfg.Disk,
		model: cfg.model(), noPre: cfg.DisablePreactivation,
		instr: make(map[insert.Mode]*instrumented),
		runs:  make(map[runKey]*runEntry),
	}
}

// run returns the memoized result of the run k, calling simulate on
// the first request (concurrent requests wait for it). Failures are
// not memoized: the entry is dropped, and a caller that waited on a
// failed run simulates for itself, so every caller sees its own error.
func (s *traceStage) run(k runKey, simulate func() (*sim.Result, error)) (*sim.Result, error) {
	s.mu.Lock()
	e, ok := s.runs[k]
	if !ok {
		e = &runEntry{}
		s.runs[k] = e
	}
	s.mu.Unlock()
	ran := false
	e.once.Do(func() {
		ran = true
		defer func() {
			if e.res == nil { // failed or panicked
				s.mu.Lock()
				delete(s.runs, k)
				s.mu.Unlock()
			}
		}()
		e.res, e.err = simulate()
	})
	if e.res == nil && !ran {
		return simulate()
	}
	return e.res, e.err
}

// baseTrace returns the uninstrumented runtime trace.
func (s *traceStage) baseTrace() *trace.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.base == nil {
		tbl, maxRPM := disk.TableFor(s.disk), s.disk.MaxRPM
		s.base = tracegen.FromSites("", s.sub.Files(), s.numDisks, s.sites, tracegen.Options{
			Model:            s.model,
			NominalServiceMS: func(b int64) float64 { return tbl.ServiceTimeMS(maxRPM, b) },
		})
	}
	return s.base
}

// instrumented returns the instrumented trace and plan for a mode.
func (s *traceStage) instrumented(mode insert.Mode) (*trace.Trace, *insert.Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if got, ok := s.instr[mode]; ok {
		return got.tr, got.plan, nil
	}
	tr, plan, err := insert.Instrument("", s.sub.Files(), s.numDisks, s.sites, insert.Options{
		Mode: mode, Disk: s.disk, Model: s.model,
		DisablePreactivation: s.noPre,
	})
	if err != nil {
		return nil, nil, err
	}
	s.instr[mode] = &instrumented{tr: tr, plan: plan}
	return tr, plan, nil
}

// compile returns the memoized run-length compiled form of tr's event
// slice, compiling it on first use. Every header over the same events
// shares one compiled form.
func (s *traceStage) compile(tr *trace.Trace) *trace.Compiled {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.compiled {
		if c.For(tr) {
			return c
		}
	}
	c := trace.Compile(tr)
	s.compiled = append(s.compiled, c)
	return c
}

// stagesFor returns the trace stage for the given preparation inputs:
// memoized per stage key in c, or freshly built when c is nil.
func stagesFor(c *Cache, p *ir.Program, cfg *Config, overrides map[string]layout.Striping) (*traceStage, error) {
	if c == nil {
		ss, err := buildSites(p, cfg, overrides)
		if err != nil {
			return nil, err
		}
		return newTraceStage(ss, cfg), nil
	}
	sk := keySites(p, cfg, overrides)
	ss, err := c.siteStage(sk, p, cfg, overrides)
	if err != nil {
		return nil, err
	}
	tk := keyTrace(sk, cfg)
	c.mu.Lock()
	defer c.mu.Unlock()
	ts, ok := c.traces[tk]
	if !ok {
		ts = newTraceStage(ss, cfg)
		c.traces[tk] = ts
	}
	return ts, nil
}
