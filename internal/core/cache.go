package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
)

// Cache memoizes preparation so the expensive front half of the
// pipeline — transformation, placement, access-pattern extraction,
// trace generation, instrumentation — runs once per distinct input
// even when many schemes, experiments, configurations or worker
// goroutines ask for it. All methods are safe for concurrent use, and
// concurrent requests for the same key run a single preparation (the
// others block on it), so a parallel experiment grid never duplicates
// work.
//
// Memoization has two levels. Instances are memoized on the workload
// name, the identity of the IR program (pointer — programs are
// treated as immutable once built), the Config fingerprint (see
// Config.Fingerprint) and the layout overrides rendered in sorted
// order; version preparation adds the version tag. A hit there
// computes no content key. Behind them, each compiler stage
// (stages.go) — and each code/layout transformation — is memoized on
// the content it reads: the program's IR rather than its pointer, and
// a trace stage on its sites stage's exact output. Instances that
// differ in name, in program pointer, or in simulator-only settings
// (fault injection, call overhead, seek model) share one set of
// sites, traces and plans, and so do programs whose request streams
// come out identical.
type Cache struct {
	// Obs, when non-nil, receives hit/miss/singleflight-wait counts
	// from every instance lookup and is propagated onto each prepared
	// Instance (so simulation runs on cached instances are observed
	// too). Set it before first use.
	Obs *obs.Collector
	// Events, when non-nil, is propagated onto each prepared Instance
	// the same way (decision-provenance events from runs on cached
	// instances land in one shared log). Set it before first use.
	Events *events.Log

	mu       sync.Mutex
	entries  map[string]*cacheEntry
	sites    map[sitesKey]*siteEntry
	interned map[outputKey][]*siteStage
	traces   map[traceKey]*traceStage
	versions map[versionKey]*versionEntry
	counts   stageCounters
}

// StageCounts reports the work behind a Cache's stages. The counts of
// one sequential regeneration are deterministic, so a test can pin
// them: a stage key that stops sharing shows as a higher count.
type StageCounts struct {
	Walks            int64 // sites stages built (access-pattern walks)
	TraceStages      int64 // trace stages created
	Instrumentations int64 // insert.Instrument calls
	Runs             int64 // Instance.Run calls that simulated
}

type stageCounters struct {
	walks, traceStages, instrumentations, runs atomic.Int64
}

// Counts returns the work counted so far.
func (c *Cache) Counts() StageCounts {
	return StageCounts{
		Walks:            c.counts.walks.Load(),
		TraceStages:      c.counts.traceStages.Load(),
		Instrumentations: c.counts.instrumentations.Load(),
		Runs:             c.counts.runs.Load(),
	}
}

// outputKey narrows the interning of sites stages to candidates of one
// subsystem size and one request count.
type outputKey struct {
	numDisks, n int
}

type cacheEntry struct {
	once sync.Once
	// done flips after once completes; a caller that finds the entry
	// neither done nor runnable blocked on a concurrent preparation
	// (the singleflight-wait case in the metrics).
	done atomic.Bool
	// prog pins the keyed program so its address cannot be reused by
	// the allocator while the entry is alive.
	prog    *ir.Program
	in      *Instance
	applied bool
	err     error
}

// siteEntry memoizes one sites stage.
type siteEntry struct {
	once  sync.Once
	stage *siteStage
	err   error
}

// versionKey identifies a code/layout transformation's inputs: the
// original program's sites key (ApplyVersion reads NumDisks and
// UnitBytes, and TL+DL the original's per-nest request counts) and
// the version.
type versionKey struct {
	orig sitesKey
	v    Version
}

// versionEntry memoizes one ApplyVersion result. When the result is
// the input program itself (VOrig, or a version that did not apply),
// identity is set and each caller prepares its own program.
type versionEntry struct {
	once      sync.Once
	prog      *ir.Program
	identity  bool
	overrides map[string]layout.Striping
	applied   bool
	err       error
}

// NewCache returns an empty instance cache.
func NewCache() *Cache {
	return &Cache{
		entries:  make(map[string]*cacheEntry),
		sites:    make(map[sitesKey]*siteEntry),
		interned: make(map[outputKey][]*siteStage),
		traces:   make(map[traceKey]*traceStage),
		versions: make(map[versionKey]*versionEntry),
	}
}

// entry returns (creating if needed) the instance entry for a key.
func (c *Cache) entry(key string, prog *ir.Program) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{prog: prog}
		c.entries[key] = e
	}
	return e
}

// Len reports the number of memoized instance preparations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// siteStage returns the memoized sites stage for sk, building it on
// the first request (concurrent requests wait for that build). A
// built stage is interned: it is the earlier stage with exactly the
// same output when there is one.
func (c *Cache) siteStage(sk sitesKey, p *ir.Program, cfg *Config, overrides map[string]layout.Striping) (*siteStage, error) {
	c.mu.Lock()
	e, ok := c.sites[sk]
	if !ok {
		e = &siteEntry{}
		c.sites[sk] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		c.counts.walks.Add(1)
		e.stage, e.err = buildSites(p, cfg, overrides)
		if e.err == nil {
			e.stage = c.intern(e.stage)
		}
	})
	return e.stage, e.err
}

// intern returns the stage whose output equals ss's exactly (the same
// subsystem size, sites and file table), registering ss if none does.
func (c *Cache) intern(ss *siteStage) *siteStage {
	k := outputKey{numDisks: ss.numDisks, n: len(ss.sites)}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range c.interned[k] {
		if slices.Equal(o.sites, ss.sites) && slices.Equal(o.files, ss.files) {
			return o
		}
	}
	c.interned[k] = append(c.interned[k], ss)
	return ss
}

// Prepare is a memoizing core.Prepare: the first call for a key does
// the work, every later (or concurrent) call returns the shared
// Instance. Callers must not mutate the returned Instance's fields;
// its Run and derived-artifact methods are concurrency-safe.
func (c *Cache) Prepare(name string, p *ir.Program, cfg Config, overrides map[string]layout.Striping) (*Instance, error) {
	key := fmt.Sprintf("p|%s|%p|%s|%s", name, p, cfg.Fingerprint(), overridesKey(overrides))
	e := c.entry(key, p)
	wasDone := e.done.Load()
	ran := false
	e.once.Do(func() {
		ran = true
		e.in, e.err = prepare(c, name, p, cfg, overrides)
		if e.in != nil {
			e.in.Obs = c.Obs
			e.in.Events = c.Events
		}
		e.done.Store(true)
	})
	c.countLookup(ran, wasDone)
	return e.in, e.err
}

// countLookup classifies one lookup for the metrics: the caller
// either did the preparation (miss), found it already memoized
// (hit), or blocked on another goroutine's in-flight preparation
// (singleflight wait).
func (c *Cache) countLookup(ran, wasDone bool) {
	if c.Obs == nil {
		return
	}
	switch {
	case ran:
		c.Obs.CountCacheMiss()
	case wasDone:
		c.Obs.CountCacheHit()
	default:
		c.Obs.CountCacheWait()
	}
}

// PrepareVersion is a memoizing core.PrepareVersion: the code/layout
// transformation and the preparation of its result are both shared.
// The bool reports whether the transformation applied.
func (c *Cache) PrepareVersion(name string, p *ir.Program, v Version, cfg Config) (*Instance, bool, error) {
	key := fmt.Sprintf("v|%s|%p|%s|%s", name, p, v, cfg.Fingerprint())
	e := c.entry(key, p)
	wasDone := e.done.Load()
	ran := false
	e.once.Do(func() {
		ran = true
		defer e.done.Store(true)
		ve := c.version(p, v, &cfg)
		if ve.err != nil {
			e.err = ve.err
			return
		}
		prog := ve.prog
		if ve.identity {
			prog = p
		}
		e.in, e.err = prepare(c, name+"/"+string(v), prog, cfg, ve.overrides)
		if e.in != nil {
			e.in.Obs = c.Obs
			e.in.Events = c.Events
		}
		e.applied = ve.applied
	})
	c.countLookup(ran, wasDone)
	return e.in, e.applied, e.err
}

// version returns the memoized ApplyVersion result for p under v and
// cfg. The layout-aware tiler's per-nest request counts come from the
// original program's sites stage, shared with its preparation. Every
// input of the result, an error included, is in the key, so a memoized
// failure is the failure any request with that key would see. An
// invalid program has no content key; its error is not memoized.
func (c *Cache) version(p *ir.Program, v Version, cfg *Config) *versionEntry {
	if err := p.Validate(); err != nil {
		return &versionEntry{err: err}
	}
	sk := keySites(p, cfg, nil)
	c.mu.Lock()
	ve, ok := c.versions[versionKey{orig: sk, v: v}]
	if !ok {
		ve = &versionEntry{}
		c.versions[versionKey{orig: sk, v: v}] = ve
	}
	c.mu.Unlock()
	ve.once.Do(func() {
		var nestCost []float64
		if v == VTLDL {
			orig, err := c.siteStage(sk, p, cfg, nil)
			if err != nil {
				ve.err = err
				return
			}
			nestCost = nestRequests(p, orig.sites)
		}
		ve.prog, ve.overrides, ve.applied, ve.err = ApplyVersion(p, v, *cfg, nestCost)
		ve.identity = ve.prog == p
	})
	return ve
}
