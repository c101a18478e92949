package trace_test

import (
	"bytes"
	"testing"
	"unsafe"

	"sdpm/internal/access"
	"sdpm/internal/cycles"
	"sdpm/internal/disk"
	"sdpm/internal/insert"
	"sdpm/internal/ir"
	"sdpm/internal/layout"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
)

// TestRecordSizes pins the pointer-free record layout: the compiler
// passes allocate one Request per request site inside a 112-byte
// Event.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(trace.Request{}); n != 64 {
		t.Errorf("sizeof(Request) = %d, want 64", n)
	}
	if n := unsafe.Sizeof(trace.Event{}); n != 112 {
		t.Errorf("sizeof(Event) = %d, want 112", n)
	}
}

// twoArrayProgram is a small program over arrays named x and y that
// writes x, then reads y while writing x, slowly enough that every
// disk idles long enough for both spin-downs and RPM dips.
func twoArrayProgram(name, x, y string) *ir.Program {
	b := ir.NewBuilder(name)
	ax := b.Array2D(x, 16, 512)
	ay := b.Array2D(y, 16, 512)
	b.Nest("init", ir.L("i", 16), ir.L("j", 512)).
		Stmt(40, ir.W(ax, ir.Var(0), ir.Var(1)))
	b.Nest("sweep", ir.L("i", 16), ir.L("j", 512)).
		Stmt(5_000_000, ir.R(ay, ir.Var(0), ir.Var(1)), ir.W(ax, ir.Var(0), ir.Var(1)))
	return b.MustBuild()
}

// traces returns the base and instrumented traces of p on a 4-disk
// subsystem with staggered striping.
func traces(t *testing.T, p *ir.Program) (base, tpm, drpm *trace.Trace) {
	t.Helper()
	sub := layout.MustSubsystem(4)
	if err := access.PlaceArraysStaggered(p, sub, 4, 4096); err != nil {
		t.Fatal(err)
	}
	ss, err := tracegen.Sites(p, sub, 4)
	if err != nil {
		t.Fatal(err)
	}
	dp := disk.DefaultParams()
	m := cycles.New(cycles.DefaultClockHz, 5, 3)
	base = tracegen.FromSites(p.Name, sub.Files(), 4, ss, tracegen.Options{
		Model:            m,
		NominalServiceMS: func(b int64) float64 { return dp.ServiceTimeMS(dp.MaxRPM, b) },
	})
	tpm, _, err = insert.Instrument(p.Name, sub.Files(), 4, ss, insert.Options{Mode: insert.ModeTPM, Disk: dp, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	drpm, _, err = insert.Instrument(p.Name, sub.Files(), 4, ss, insert.Options{Mode: insert.ModeDRPM, Disk: dp, Model: m})
	if err != nil {
		t.Fatal(err)
	}
	return base, tpm, drpm
}

func encode(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInstrumentedRoundTripBytes checks that Encode -> Decode ->
// Encode reproduces the bytes of compiler-generated traces, file
// names and power ops included.
func TestInstrumentedRoundTripBytes(t *testing.T) {
	base, tpm, drpm := traces(t, twoArrayProgram("rt", "x", "y"))
	for name, tr := range map[string]*trace.Trace{"base": base, "tpm": tpm, "drpm": drpm} {
		if name != "base" && tr.NumPowerOps() == 0 {
			t.Fatalf("%s: no power ops; the test needs some", name)
		}
		want := encode(t, tr)
		got, err := trace.Decode(bytes.NewReader(want))
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: decoded trace invalid: %v", name, err)
		}
		if again := encode(t, got); !bytes.Equal(again, want) {
			t.Errorf("%s: re-encoded trace differs from the original encoding", name)
		}
		if !bytes.Contains(want, []byte(" x ")) || !bytes.Contains(want, []byte(" y ")) {
			t.Errorf("%s: encoding does not name both files", name)
		}
	}
}

// fileNames lists the file name of every request in tr, in order.
func fileNames(tr *trace.Trace) map[float64][]string {
	out := make(map[float64][]string)
	for _, e := range tr.Events {
		if e.Kind == trace.EvRequest {
			out[e.Req.ArrivalMS] = append(out[e.Req.ArrivalMS], tr.FileName(e.Req.File))
		}
	}
	return out
}

// TestMergeOpenRemapsFiles merges programs whose array names collide
// (both have "x") or differ ("y" and "z"): file ids are remapped into
// one table, and every request keeps its file name.
func TestMergeOpenRemapsFiles(t *testing.T) {
	a, _, _ := traces(t, twoArrayProgram("a", "x", "y"))
	b, _, _ := traces(t, twoArrayProgram("b", "z", "x"))
	m, err := trace.MergeOpen(4, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Files; len(got) != 3 || got[0] != "x" || got[1] != "y" || got[2] != "z" {
		t.Fatalf("merged Files = %v, want [x y z]", got)
	}
	// Every request keeps its name: the multiset of names per arrival
	// time of the merge is the union of the inputs'.
	want := fileNames(a)
	for at, names := range fileNames(b) {
		want[at] = append(want[at], names...)
	}
	got := fileNames(m)
	if len(got) != len(want) {
		t.Fatalf("merged trace has %d arrival times, inputs %d", len(got), len(want))
	}
	count := func(names []string) map[string]int {
		c := make(map[string]int)
		for _, n := range names {
			c[n]++
		}
		return c
	}
	for at, names := range want {
		g, w := count(got[at]), count(names)
		if len(g) != len(w) {
			t.Fatalf("arrival %g: files %v, want %v", at, got[at], names)
		}
		for n, c := range w {
			if g[n] != c {
				t.Fatalf("arrival %g: files %v, want %v", at, got[at], names)
			}
		}
	}
	// b's "z" was id 0 in b; in the merge it must be 2.
	var sawZ bool
	for _, e := range m.Events {
		if m.FileName(e.Req.File) == "z" {
			sawZ = true
			if e.Req.File != 2 {
				t.Fatalf("z has id %d in the merge, want 2", e.Req.File)
			}
		}
	}
	if !sawZ {
		t.Fatal("no request names z")
	}
	// The merge round-trips through the text format.
	enc := encode(t, m)
	dec, err := trace.Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, dec), enc) {
		t.Error("merged trace does not round-trip")
	}
}
