package core

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sdpm/internal/faults"
	"sdpm/internal/insert"
	"sdpm/internal/ir"
	"sdpm/internal/obs/events"
	"sdpm/internal/trace"
	"sdpm/internal/workloads"
)

// Key classes for the key-sufficiency test.
const (
	stSites = "sites"
	stTrace = "trace"
	stRun   = "run" // read by the simulator only; keys the run memo, no stage
)

// configFieldStage records, for every Config field, the first key
// that covers it: a field in the sites key is in the trace key too,
// and the run memo lives on a trace stage, so a stage field keys the
// memoized runs as well. A Config field missing here fails
// TestStageKeysSufficient: a new field has to be placed in a key
// before the memo may share stages or runs across it.
var configFieldStage = map[string]string{
	"Disk":                 stTrace,
	"NumDisks":             stSites,
	"UnitBytes":            stSites,
	"CacheUnits":           stSites,
	"Model":                stTrace,
	"PowerCallOverheadMS":  stRun,
	"DisablePreactivation": stTrace,
	"NoCache":              stSites,
	"DistanceAwareSeek":    stRun,
	"Faults":               stRun,
	"FaultSeed":            stRun,
	"Audit":                stRun,
}

// leaf is one scalar reachable from Config: a top-level field, a
// field of a nested struct, or a field of the struct a pointer field
// points to (the cycle model).
type leaf struct {
	path []int
	name string // dotted field path
	top  string // the top-level Config field
	kind reflect.Kind
}

func configLeaves(t *testing.T) []leaf {
	t.Helper()
	var out []leaf
	var walk func(typ reflect.Type, path []int, name, top string)
	walk = func(typ reflect.Type, path []int, name, top string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			p := append(append([]int(nil), path...), i)
			n, tp := f.Name, top
			if name != "" {
				n = name + "." + f.Name
			} else {
				tp = f.Name
			}
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			switch ft.Kind() {
			case reflect.Struct:
				walk(ft, p, n, tp)
			case reflect.Bool, reflect.String, reflect.Float64, reflect.Float32,
				reflect.Int, reflect.Int64, reflect.Int32, reflect.Uint64, reflect.Uint32:
				out = append(out, leaf{path: p, name: n, top: tp, kind: ft.Kind()})
			default:
				t.Errorf("Config field %s has kind %s, which the key-sufficiency test cannot perturb; extend it", n, ft.Kind())
			}
		}
	}
	walk(reflect.TypeOf(Config{}), nil, "", "")
	return out
}

// leafValue returns the addressable leaf of cfg at path, first
// replacing every pointer on the way with a private copy (a nil model
// becomes a copy of the default) so setting it never touches another
// Config.
func leafValue(cfg *Config, path []int) reflect.Value {
	v := reflect.ValueOf(cfg).Elem()
	for _, i := range path {
		f := v.Field(i)
		if f.Kind() == reflect.Pointer {
			cp := reflect.New(f.Type().Elem())
			if f.IsNil() {
				cp.Elem().Set(reflect.ValueOf(*cfg.model()))
			} else {
				cp.Elem().Set(f.Elem())
			}
			f.Set(cp)
			f = cp.Elem()
		}
		v = f
	}
	return v
}

// perturbed returns copies of cfg with the leaf changed, in order of
// preference: small changes first.
func perturbed(cfg Config, l leaf) []Config {
	var out []Config
	add := func(set func(v reflect.Value) bool) {
		c := cfg
		if set(leafValue(&c, l.path)) {
			out = append(out, c)
		}
	}
	orig := leafValue(&cfg, l.path)
	switch l.kind {
	case reflect.Bool:
		add(func(v reflect.Value) bool { v.SetBool(!orig.Bool()); return true })
	case reflect.String:
		add(func(v reflect.Value) bool { v.SetString(orig.String() + "x"); return true })
	case reflect.Float64, reflect.Float32:
		for _, f := range []func(float64) float64{
			func(x float64) float64 { return x * 1.5 },
			func(x float64) float64 { return x * 0.5 },
			func(x float64) float64 { return x + 1 },
			func(x float64) float64 { return x + 0.01 },
		} {
			add(func(v reflect.Value) bool {
				nv := f(orig.Float())
				v.SetFloat(nv)
				return nv != orig.Float()
			})
		}
	case reflect.Int, reflect.Int64, reflect.Int32:
		for _, d := range []int64{1, -1, 2, 512, 1200, -1200} {
			add(func(v reflect.Value) bool { v.SetInt(orig.Int() + d); return true })
		}
		add(func(v reflect.Value) bool { v.SetInt(orig.Int() * 2); return orig.Int() != 0 })
	case reflect.Uint64, reflect.Uint32:
		add(func(v reflect.Value) bool { v.SetUint(orig.Uint() + 1); return true })
	}
	return out
}

// stageOutputs is what the two compiler stages produce for a config,
// built fresh (no memo).
type stageOutputs struct {
	files  []string
	sites  any
	traces [3][]byte // encoded base, TPM and DRPM traces
	events [3][]trace.Event
	plans  [2]*insert.Plan
}

func buildStages(p *ir.Program, cfg Config, withTraces bool) (*stageOutputs, error) {
	ss, err := buildSites(p, &cfg, nil)
	if err != nil {
		return nil, err
	}
	out := &stageOutputs{files: ss.files, sites: ss.sites}
	if !withTraces {
		return out, nil
	}
	ts := newTraceStage(ss, &cfg, new(stageCounters))
	trs := []*trace.Trace{ts.baseTrace()}
	for i, m := range []insert.Mode{insert.ModeTPM, insert.ModeDRPM} {
		tr, plan, err := ts.instrumented(m)
		if err != nil {
			return nil, err
		}
		trs = append(trs, tr)
		out.plans[i] = plan
	}
	for i, tr := range trs {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return nil, err
		}
		out.traces[i] = buf.Bytes()
		out.events[i] = tr.Events
	}
	return out, nil
}

// TestStageKeysSufficient perturbs every leaf of Config, one at a
// time. For each stage, the perturbation must either change the
// stage's key or leave the stage's output identical to the unperturbed
// output, bit for bit. Every top-level field must be classified in
// configFieldStage, and the classification must hold: a sites field
// changes the sites key, a trace field the trace key, and a run-only
// field neither stage key but the run key. The base configuration
// injects faults, so every fault field is live.
func TestStageKeysSufficient(t *testing.T) {
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if _, ok := configFieldStage[f.Name]; !ok {
			t.Errorf("Config.%s is in no stage key and not declared run-only: classify it in configFieldStage", f.Name)
		}
	}
	b, err := workloads.ByName("galgel")
	if err != nil {
		t.Fatal(err)
	}
	light, err := faults.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	base.Model = b.Model()
	base.CacheUnits = b.CacheUnits
	base.Faults = light
	base.FaultSeed = 1
	want, err := buildStages(b.Program, base, true)
	if err != nil {
		t.Fatal(err)
	}
	// The trace key names an interned sites stage, so the keys come
	// from one Cache, as Cache.Prepare computes them.
	c := NewCache()
	keys := func(cfg *Config) (sitesKey, traceKey, error) {
		sk := keySites(b.Program, cfg, nil)
		ss, err := c.siteStage(sk, b.Program, cfg, nil)
		if err != nil {
			return sk, traceKey{}, err
		}
		return sk, keyTrace(ss, cfg), nil
	}
	sk0, tk0, err := keys(&base)
	if err != nil {
		t.Fatal(err)
	}
	rk0 := keyRun(CMDRPM, &base)

	for _, l := range configLeaves(t) {
		stage := configFieldStage[l.top]
		var cfg Config
		var got *stageOutputs
		var sk sitesKey
		var tk traceKey
		for _, c := range perturbed(base, l) {
			if c.Validate() != nil {
				continue
			}
			csk, ctk, err := keys(&c)
			if err != nil {
				continue
			}
			out, err := buildStages(b.Program, c, ctk == tk0)
			if err != nil {
				continue
			}
			cfg, got, sk, tk = c, out, csk, ctk
			break
		}
		if got == nil {
			t.Errorf("%s: no perturbation yields a valid configuration; extend perturbed", l.name)
			continue
		}
		switch {
		case stage == stSites && sk == sk0:
			t.Errorf("%s: declared a sites input, but perturbing it leaves the sites key unchanged", l.name)
		case stage == stTrace && tk == tk0:
			t.Errorf("%s: declared a trace input, but perturbing it leaves the trace key unchanged", l.name)
		case stage == stRun && (sk != sk0 || tk != tk0):
			t.Errorf("%s: declared run-only, but perturbing it changes a stage key", l.name)
		case stage == stRun && keyRun(CMDRPM, &cfg) == rk0:
			t.Errorf("%s: declared run-only, but perturbing it leaves the run key unchanged", l.name)
		}
		if sk == sk0 && (!reflect.DeepEqual(got.sites, want.sites) || !reflect.DeepEqual(got.files, want.files)) {
			t.Errorf("%s: sites key unchanged but the sites differ: the sites key misses an input", l.name)
		}
		if tk == tk0 {
			for i := range want.traces {
				if !bytes.Equal(got.traces[i], want.traces[i]) || !reflect.DeepEqual(got.events[i], want.events[i]) {
					t.Errorf("%s: trace key unchanged but trace %d differs: the trace key misses an input", l.name, i)
				}
			}
			if !reflect.DeepEqual(got.plans, want.plans) {
				t.Errorf("%s: trace key unchanged but the plans differ: the trace key misses an input", l.name)
			}
		}
	}
}

// instanceTraces returns the base, TPM and DRPM traces of in.
func instanceTraces(t *testing.T, in *Instance) []*trace.Trace {
	t.Helper()
	out := []*trace.Trace{in.BaseTrace()}
	for _, m := range []insert.Mode{insert.ModeTPM, insert.ModeDRPM} {
		tr, _, err := in.Instrumented(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// TestSharedStagesUnobservable prepares every workload's versions
// (the paper's five plus loop interchange) through one Cache, after
// the original program under its bare name, so versions the compiler
// leaves unchanged share the original's stages under another name.
// Each cached instance must be indistinguishable from a fresh
// core.PrepareVersion: bit-identical results for all seven schemes,
// identical traces (program header, file table and every event, so
// identical encodings), and event-log labels carrying its own name. The workloads run as parallel
// subtests; each reads its log once, after all its versions ran.
func TestSharedStagesUnobservable(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkSharedStagesUnobservable(t, name)
		})
	}
}

func checkSharedStagesUnobservable(t *testing.T, name string) {
	b, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Model = b.Model()
	cfg.CacheUnits = b.CacheUnits
	c := NewCache()
	c.Events = events.NewLog(1 << 20)
	orig, err := c.Prepare(b.Name, b.Program, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range AllSchemes() {
		if _, err := orig.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	shared := 0
	// logged[i] is the span of the log version i's runs filled.
	type span struct {
		name       string
		start, end int
	}
	var logged []span
	for _, v := range ExtendedVersions() {
		cached, _, err := c.PrepareVersion(b.Name, b.Program, v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _, err := PrepareVersion(b.Name, b.Program, v, cfg)
		if err != nil {
			t.Fatal(err)
		}
		where := cached.Name
		if cached.stages == orig.stages {
			shared++
		}
		freshTraces := instanceTraces(t, fresh)
		for i, tr := range instanceTraces(t, cached) {
			if tr.Program != cached.Name {
				t.Errorf("%s: trace %d is named %q", where, i, tr.Program)
			}
			// Every field Encode reads, compared exactly: the traces
			// are equal, so their encodings are too.
			ft := freshTraces[i]
			if tr.Program != ft.Program || tr.NumDisks != ft.NumDisks ||
				!slices.Equal(tr.Files, ft.Files) || !slices.Equal(tr.Events, ft.Events) {
				t.Errorf("%s: trace %d differs from a fresh preparation's", where, i)
			}
		}
		before := c.Events.Len()
		for _, s := range AllSchemes() {
			got, err := cached.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: cached result differs from a fresh preparation", where, s)
			}
		}
		logged = append(logged, span{where, before, c.Events.Len()})
	}
	if c.Events.Dropped() > 0 {
		t.Fatalf("%s: the event log dropped %d events; enlarge it", name, c.Events.Dropped())
	}
	evs := c.Events.Events()
	for _, sp := range logged {
		if sp.end == sp.start {
			t.Fatalf("%s: runs logged no events", sp.name)
		}
		for _, ev := range evs[sp.start:sp.end] {
			if ev.Program != sp.name {
				t.Fatalf("%s: event labelled with program %q", sp.name, ev.Program)
			}
		}
	}
	// The original version is always unchanged, so at least
	// "<name>/orig" shares the bare name's stages.
	if shared == 0 {
		t.Errorf("%s: no version shares the original's stages", name)
	}
}

// TestFaultSeedsShareStages checks that instances differing only in
// simulator-only settings share one set of compiler artifacts — the
// same Sites backing array and the same trace events — while each
// keeps its own fault plan and results.
func TestFaultSeedsShareStages(t *testing.T) {
	b, err := workloads.ByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	light, err := faults.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Model = b.Model()
	cfg.Faults = light
	c := NewCache()
	var ins []*Instance
	for seed := int64(1); seed <= 3; seed++ {
		cfg.FaultSeed = seed
		in, err := c.Prepare(b.Name, b.Program, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	cfg.PowerCallOverheadMS *= 2
	cfg.DistanceAwareSeek = true
	in, err := c.Prepare(b.Name, b.Program, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ins = append(ins, in)
	if c.Len() != len(ins) {
		t.Fatalf("cache holds %d instances, want %d", c.Len(), len(ins))
	}
	first := ins[0]
	for _, in := range ins[1:] {
		if in == first {
			t.Fatal("distinct configurations returned one instance")
		}
		if len(in.Sites) == 0 || &in.Sites[0] != &first.Sites[0] {
			t.Error("instances differing in run-only settings do not share the Sites backing array")
		}
		for i, tr := range instanceTraces(t, in) {
			if ftr := instanceTraces(t, first)[i]; &tr.Events[0] != &ftr.Events[0] || tr == ftr {
				t.Errorf("trace %d: want a distinct header over shared events", i)
			}
		}
	}
	// Distinct seeds still draw distinct faults.
	r1, err := ins[0].Run(CMTPM)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ins[1].Run(CMTPM)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(r1, r2) {
		t.Error("fault seeds 1 and 2 produced identical CMTPM results")
	}
	// A stage-input change does not share.
	cfg.UnitBytes *= 2
	other, err := c.Prepare(b.Name, b.Program, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &other.Sites[0] == &first.Sites[0] {
		t.Error("a different stripe unit shares the sites")
	}
	if got := other.BaseTrace().Program; got != b.Name {
		t.Errorf("trace named %q, want %q", got, b.Name)
	}
}

// TestConcurrentViewsShareStages prepares and runs instances that
// differ only in fault seed from many goroutines at once: they race
// to build the shared stages and the per-instance trace headers, and
// every one must still see its own name and the sequential result.
func TestConcurrentViewsShareStages(t *testing.T) {
	b, err := workloads.ByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	light, err := faults.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	cfgFor := func(seed int64) Config {
		cfg := DefaultConfig()
		cfg.Model = b.Model()
		cfg.Faults = light
		cfg.FaultSeed = seed
		return cfg
	}
	const seeds = 4
	want := make(map[int64]map[Scheme]float64)
	for seed := int64(1); seed <= seeds; seed++ {
		in, err := Prepare(b.Name, b.Program, cfgFor(seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = make(map[Scheme]float64)
		for _, s := range AllSchemes() {
			res, err := in.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			want[seed][s] = res.EnergyJ
		}
	}
	c := NewCache()
	var wg sync.WaitGroup
	for seed := int64(1); seed <= seeds; seed++ {
		for _, s := range AllSchemes() {
			wg.Add(1)
			go func(seed int64, s Scheme) {
				defer wg.Done()
				in, err := c.Prepare(b.Name, b.Program, cfgFor(seed), nil)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := in.Run(s)
				if err != nil {
					t.Error(err)
					return
				}
				if res.EnergyJ != want[seed][s] || res.Program != b.Name {
					t.Errorf("seed %d %s: energy %v program %q, want %v %q", seed, s, res.EnergyJ, res.Program, want[seed][s], b.Name)
				}
			}(seed, s)
		}
	}
	wg.Wait()
	if c.Len() != seeds {
		t.Errorf("cache holds %d instances, want %d", c.Len(), seeds)
	}
}
