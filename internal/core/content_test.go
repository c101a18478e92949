package core

import (
	"reflect"
	"slices"
	"testing"

	"sdpm/internal/ir"
	"sdpm/internal/obs/events"
	"sdpm/internal/workloads"
)

// keyTestProgram builds a small program that exercises every IR field:
// row- and column-major arrays, a blocked array, loops with non-zero
// bounds and steps, constant and multi-coefficient subscripts, reads
// and writes. Each call builds fresh, unshared values.
func keyTestProgram() *ir.Program {
	b := ir.NewBuilder("keytest")
	a := b.Array2D("A", 64, 64)
	c := b.Array2D("C", 64, 64)
	c.RowMajor = false
	blk := b.Array2D("K", 64, 64)
	blk.Block = []int64{8, 16}
	v := b.Array1D("V", 512)
	b.Nest("sweep", ir.L("i", 64), ir.L("j", 64)).
		Stmt(12, ir.R(a, ir.Var(0), ir.Var(1)), ir.W(c, ir.Var(1), ir.Var(0))).
		Stmt(3, ir.R(blk, ir.Var(0), ir.Var(1)))
	b.Nest("stride", ir.LRange("i", 2, 62, 3), ir.L("j", 32)).
		Stmt(7, ir.R(a, ir.Var(0).Plus(1), ir.Var(1).Times(2)), ir.W(v, ir.Var(0).Times(8).Add(ir.Var(1)))).
		Stmt(0, ir.R(c, ir.Cnst(5), ir.Var(1)))
	return b.MustBuild()
}

// keyTestConfig is a fine-grained subsystem (small stripe units, a
// small cache), so most IR changes show in the sites.
func keyTestConfig() Config {
	cfg := DefaultConfig()
	cfg.NumDisks = 4
	cfg.UnitBytes = 4096
	cfg.CacheUnits = 4
	return cfg
}

// irLeaf is one perturbable value reachable from a Program: a scalar
// field, a slice's length, or a reference's array pointer. path holds
// the struct-field and slice indices from the program (pointers are
// followed implicitly); fields names the struct fields on the way, the
// leaf's own last.
type irLeaf struct {
	path   []int
	fields []string // "Type.Field"
	kind   string   // "scalar", "len" or "ref"
}

// irLeaves walks p by reflection. Every struct field it meets is
// recorded in fields; a field of a kind it cannot perturb fails t.
// Ref.Array is a reference into Program.Arrays, not a value of its own:
// it is perturbed by pointing it at another array.
func irLeaves(t *testing.T, p *ir.Program, fields map[string]int) []irLeaf {
	t.Helper()
	var out []irLeaf
	var walk func(v reflect.Value, path []int, chain []string)
	walk = func(v reflect.Value, path []int, chain []string) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem(), path, chain)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				name := v.Type().Name() + "." + f.Name
				if _, ok := fields[name]; !ok {
					fields[name] = 0
				}
				fp := append(slices.Clone(path), i)
				fc := append(slices.Clone(chain), name)
				if v.Type() == reflect.TypeOf(ir.Ref{}) && f.Name == "Array" {
					out = append(out, irLeaf{fp, fc, "ref"})
					continue
				}
				walk(v.Field(i), fp, fc)
			}
		case reflect.Slice:
			out = append(out, irLeaf{path, chain, "len"})
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), append(slices.Clone(path), i), chain)
			}
		case reflect.String, reflect.Bool, reflect.Int, reflect.Int64, reflect.Uint8:
			out = append(out, irLeaf{path, chain, "scalar"})
		default:
			t.Errorf("IR field %s has kind %s, which TestProgramKeySufficient cannot perturb; extend it", chain[len(chain)-1], v.Kind())
		}
	}
	walk(reflect.ValueOf(p), nil, nil)
	return out
}

// irAt returns the addressable value at path in p.
func irAt(p *ir.Program, path []int) reflect.Value {
	v := reflect.ValueOf(p)
	for _, i := range path {
		for v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		if v.Kind() == reflect.Struct {
			v = v.Field(i)
		} else {
			v = v.Index(i)
		}
	}
	return v
}

// irPerturbations returns the edits of one leaf, each applied to a
// freshly built program.
func irPerturbations(l irLeaf, p *ir.Program) []func(*ir.Program) {
	at := func(q *ir.Program) reflect.Value { return irAt(q, l.path) }
	var out []func(*ir.Program)
	v := at(p)
	switch l.kind {
	case "ref":
		for i := range p.Arrays {
			out = append(out, func(q *ir.Program) { at(q).Set(reflect.ValueOf(q.Arrays[i])) })
		}
	case "len":
		if v.Len() > 0 {
			out = append(out, func(q *ir.Program) { w := at(q); w.Set(w.Slice(0, w.Len()-1)) })
			out = append(out, func(q *ir.Program) { w := at(q); w.Set(reflect.Append(w, w.Index(w.Len()-1))) })
		} else if v.Type().Elem().Kind() != reflect.Pointer {
			out = append(out, func(q *ir.Program) { w := at(q); w.Set(reflect.Append(w, reflect.Zero(w.Type().Elem()))) })
		}
	case "scalar":
		switch v.Kind() {
		case reflect.String:
			out = append(out, func(q *ir.Program) { w := at(q); w.SetString(w.String() + "x") })
		case reflect.Bool:
			out = append(out, func(q *ir.Program) { w := at(q); w.SetBool(!w.Bool()) })
		case reflect.Uint8:
			out = append(out, func(q *ir.Program) { w := at(q); w.SetUint(w.Uint() ^ 1) })
		case reflect.Int, reflect.Int64:
			for _, f := range []func(int64) int64{
				func(x int64) int64 { return x + 1 },
				func(x int64) int64 { return x - 1 },
				func(x int64) int64 { return x * 2 },
				func(x int64) int64 { return x / 2 },
			} {
				out = append(out, func(q *ir.Program) { w := at(q); w.SetInt(f(w.Int())) })
			}
		}
	}
	return out
}

// TestProgramKeySufficient perturbs every field of the IR, found by
// reflection so a new field cannot be missed, one value at a time, on
// a freshly built program. Every valid perturbation must either
// change the program's key or leave the sites stage's output (file
// table and sites) identical; every IR field must be reached by at
// least one valid perturbation of itself or of a value inside it.
func TestProgramKeySufficient(t *testing.T) {
	cfg := keyTestConfig()
	ref := keyTestProgram()
	key0 := programKey(ref)
	want, err := buildSites(ref, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if programKey(keyTestProgram()) != key0 || programKey(ref.Clone()) != key0 {
		t.Fatal("content-equal programs key differently")
	}
	fields := make(map[string]int)
	for _, l := range irLeaves(t, ref, fields) {
		for i, perturb := range irPerturbations(l, ref) {
			p := keyTestProgram()
			perturb(p)
			if p.Validate() != nil {
				continue
			}
			got, err := buildSites(p, &cfg, nil)
			if err != nil {
				continue
			}
			for _, f := range l.fields {
				fields[f]++
			}
			if programKey(p) != key0 {
				continue
			}
			if !slices.Equal(got.sites, want.sites) || !slices.Equal(got.files, want.files) {
				t.Errorf("%v at %v (%s edit %d): the program key is unchanged but the sites differ", l.fields, l.path, l.kind, i)
			}
		}
	}
	for f, n := range fields {
		if n == 0 {
			t.Errorf("no valid perturbation reaches IR field %s; extend keyTestProgram or irPerturbations", f)
		}
	}
}

// TestContentEqualStagesShared checks that the stage memo shares by
// content. Programs with equal IR share one walk; a transformation
// whose request stream is unchanged shares the original's trace stage;
// streams that differ in subsystem size or file names do not share;
// and every instance still names its own traces, results and events.
func TestContentEqualStagesShared(t *testing.T) {
	b, err := workloads.ByName("galgel")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := workloads.ByName("galgel")
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
	clone, err := c.Prepare("clone", b.Program.Clone(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := c.Prepare("rebuilt", fresh.Program, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tiled, applied, err := c.PrepareVersion(b.Name, b.Program, VTL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !applied || tiled.Program == b.Program || programKey(tiled.Program) == programKey(b.Program) {
		t.Fatal("galgel under TL is not a transformed program; pick another request-identical version")
	}
	if got := c.Counts().Walks; got != 2 {
		t.Errorf("%d walks, want 2 (the original's content and TL's)", got)
	}
	origTraces := instanceTraces(t, orig)
	for _, in := range []*Instance{clone, rebuilt, tiled} {
		if in.stages != orig.stages {
			t.Errorf("%s: does not share the original's trace stage", in.Name)
		}
		if &in.Sites[0] != &orig.Sites[0] {
			t.Errorf("%s: does not share the Sites backing array", in.Name)
		}
		for i, tr := range instanceTraces(t, in) {
			if &tr.Events[0] != &origTraces[i].Events[0] {
				t.Errorf("%s: trace %d does not share the event slice", in.Name, i)
			}
			if tr.Program != in.Name {
				t.Errorf("%s: trace %d is named %q", in.Name, i, tr.Program)
			}
		}
	}
	// Observed runs simulate per instance: each result and each event
	// carries the instance's own name.
	for _, in := range []*Instance{orig, clone, rebuilt, tiled} {
		before := c.Events.Len()
		res, err := in.Run(CMDRPM)
		if err != nil {
			t.Fatal(err)
		}
		if res.Program != in.Name {
			t.Errorf("%s: result names %q", in.Name, res.Program)
		}
		evs := c.Events.Events()[before:]
		if len(evs) == 0 {
			t.Fatalf("%s: the run logged no events", in.Name)
		}
		for _, ev := range evs {
			if ev.Program != in.Name {
				t.Fatalf("%s: event labelled %q", in.Name, ev.Program)
			}
		}
	}
	if c.Events.Dropped() > 0 {
		t.Fatalf("the event log dropped %d events; enlarge it", c.Events.Dropped())
	}

	// One small array fits in one stripe unit on disk 0 under any
	// subsystem size and any array name, so these programs' sites are
	// equal; the streams still differ in NumDisks or the file table.
	tiny := func(array string) *ir.Program {
		tb := ir.NewBuilder("tiny")
		a := tb.Array1D(array, 64)
		tb.Nest("n", ir.L("i", 64)).Stmt(1, ir.R(a, ir.Var(0)))
		return tb.MustBuild()
	}
	small := DefaultConfig()
	wider := small
	wider.NumDisks++
	x, err := c.Prepare("x", tiny("a"), small, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []struct {
		what string
		p    *ir.Program
		cfg  Config
	}{
		{"a wider subsystem", tiny("a"), wider},
		{"another file name", tiny("b"), small},
	} {
		y, err := c.Prepare("y", other.p, other.cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(x.Sites, y.Sites) {
			t.Fatalf("%s: the sites differ, so the case tests nothing", other.what)
		}
		if y.stages.siteStage == x.stages.siteStage || y.stages == x.stages {
			t.Errorf("%s: shares the stages of a different request stream", other.what)
		}
		xt, yt := x.BaseTrace(), y.BaseTrace()
		if reflect.DeepEqual(xt.Files, yt.Files) && xt.NumDisks == yt.NumDisks {
			t.Errorf("%s: the traces' headers are equal", other.what)
		}
	}
}
