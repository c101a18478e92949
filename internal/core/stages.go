package core

import (
	"encoding/binary"
	"fmt"
	"slices"
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
//     cache. Reads the program's content, the layout overrides,
//     NumDisks, UnitBytes, CacheUnits and NoCache.
//   - traces: the base trace, the instrumented traces and plans, and
//     their run-length compiled forms. Reads the sites stage's output
//     (NumDisks, the file table, the sites) plus the disk parameters,
//     the cycle model's values and DisablePreactivation.
//
// Both are content-addressed. The sites key encodes the program's IR
// (programKey), so a Clone or a fresh build of the same program walks
// once; and a Cache interns each built sites stage by its output, so
// programs whose request streams come out identical (a transformation
// that leaves every request unchanged) share one trace stage.
//
// Everything else in a Config (the instance name, PowerCallOverheadMS,
// DistanceAwareSeek, Faults, FaultSeed, Audit) only the simulator
// reads; an Instance carries it as a named view over the stages. A
// trace stage also memoizes the results of unobserved simulation runs
// (Instance.Run), keyed by the scheme and those run-only fields, so
// each distinct run over a stage simulates once.

// sitesKey identifies a sites stage's inputs.
type sitesKey struct {
	prog       string // programKey of the program
	overrides  string // overridesKey of the layout overrides
	numDisks   int
	unitBytes  int64
	cacheUnits int
	noCache    bool
}

// traceKey identifies a trace stage's inputs: an interned sites stage
// stands for its exact output.
type traceKey struct {
	sites *siteStage
	disk  disk.Params
	model cycles.Model // by value: value-equal models share
	noPre bool
}

// keySites keys a valid program's sites stage.
func keySites(p *ir.Program, cfg *Config, overrides map[string]layout.Striping) sitesKey {
	return sitesKey{
		prog: programKey(p), overrides: overridesKey(overrides),
		numDisks: cfg.NumDisks, unitBytes: cfg.UnitBytes,
		cacheUnits: cfg.CacheUnits, noCache: cfg.NoCache,
	}
}

func keyTrace(ss *siteStage, cfg *Config) traceKey {
	return traceKey{sites: ss, disk: cfg.Disk, model: *cfg.model(), noPre: cfg.DisablePreactivation}
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

// programKey encodes every field of a valid program's IR as varints
// and length-prefixed strings, so two programs share a key exactly
// when their IR is equal. A reference names its array by position in
// Arrays (Validate guarantees it is registered); a nil Block and an
// empty one encode differently.
func programKey(p *ir.Program) string {
	var b []byte
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	ints := func(v []int64) {
		b = binary.AppendUvarint(b, uint64(len(v)))
		for _, x := range v {
			b = binary.AppendVarint(b, x)
		}
	}
	flag := func(f bool) {
		if f {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	str(p.Name)
	b = binary.AppendUvarint(b, uint64(len(p.Arrays)))
	for _, a := range p.Arrays {
		str(a.Name)
		ints(a.Dims)
		b = binary.AppendVarint(b, a.ElemSize)
		flag(a.RowMajor)
		flag(a.Block != nil)
		ints(a.Block)
	}
	b = binary.AppendUvarint(b, uint64(len(p.Nests)))
	for _, n := range p.Nests {
		str(n.Label)
		b = binary.AppendUvarint(b, uint64(len(n.Loops)))
		for _, l := range n.Loops {
			str(l.Name)
			b = binary.AppendVarint(b, l.Lo)
			b = binary.AppendVarint(b, l.Hi)
			b = binary.AppendVarint(b, l.Step)
		}
		b = binary.AppendUvarint(b, uint64(len(n.Stmts)))
		for _, st := range n.Stmts {
			b = binary.AppendVarint(b, st.Cost)
			b = binary.AppendUvarint(b, uint64(len(st.Refs)))
			for _, r := range st.Refs {
				b = binary.AppendVarint(b, int64(slices.Index(p.Arrays, r.Array)))
				b = append(b, byte(r.Kind))
				b = binary.AppendUvarint(b, uint64(len(r.Index)))
				for _, e := range r.Index {
					ints(e.Coeffs)
					b = binary.AppendVarint(b, e.Const)
				}
			}
		}
	}
	return string(b)
}

// siteStage is the first compiler stage's output: the subsystem size,
// its file table and the request sites — exactly what the trace stage
// reads. Immutable once built.
type siteStage struct {
	numDisks int
	files    []string
	sites    []tracegen.Site
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
	return &siteStage{numDisks: cfg.NumDisks, files: sub.Files(), sites: sites}, nil
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
	disk   disk.Params
	model  *cycles.Model
	noPre  bool
	counts *stageCounters // the owning Cache's, or a private one

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

func newTraceStage(ss *siteStage, cfg *Config, counts *stageCounters) *traceStage {
	return &traceStage{
		siteStage: ss, disk: cfg.Disk,
		model: cfg.model(), noPre: cfg.DisablePreactivation, counts: counts,
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
		s.base = tracegen.FromSites("", s.files, s.numDisks, s.sites, tracegen.Options{
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
	s.counts.instrumentations.Add(1)
	tr, plan, err := insert.Instrument("", s.files, s.numDisks, s.sites, insert.Options{
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
// memoized in c (sites by content key, traces by interned sites
// stage), or freshly built when c is nil.
func stagesFor(c *Cache, p *ir.Program, cfg *Config, overrides map[string]layout.Striping) (*traceStage, error) {
	if c == nil {
		ss, err := buildSites(p, cfg, overrides)
		if err != nil {
			return nil, err
		}
		return newTraceStage(ss, cfg, new(stageCounters)), nil
	}
	ss, err := c.siteStage(keySites(p, cfg, overrides), p, cfg, overrides)
	if err != nil {
		return nil, err
	}
	tk := keyTrace(ss, cfg)
	c.mu.Lock()
	defer c.mu.Unlock()
	ts, ok := c.traces[tk]
	if !ok {
		ts = newTraceStage(ss, cfg, &c.counts)
		c.traces[tk] = ts
		c.counts.traceStages.Add(1)
	}
	return ts, nil
}
