package insert

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"sdpm/internal/cycles"
	"sdpm/internal/disk"
	"sdpm/internal/trace"
	"sdpm/internal/tracegen"
	"sdpm/internal/workloads"
)

// assertSameAsReference instruments the sites with Instrument and with
// the global-sort reference and fails unless the traces are deep-equal
// and encode to the same bytes, and the plans agree on every field:
// mode, predicted end, per-period levels and idle estimates, calls and
// op count.
func assertSameAsReference(t *testing.T, label string, nd int, ss []tracegen.Site, opts Options) {
	t.Helper()
	gotTr, gotPlan, err := Instrument(label, testFiles, nd, ss, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wantTr, wantPlan, err := instrumentReference(label, testFiles, nd, ss, opts)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	if !reflect.DeepEqual(gotTr, wantTr) {
		for i := range wantTr.Events {
			if i >= len(gotTr.Events) || !reflect.DeepEqual(gotTr.Events[i], wantTr.Events[i]) {
				t.Fatalf("%s: trace diverges from the reference at event %d of %d", label, i, len(wantTr.Events))
			}
		}
		t.Fatalf("%s: trace differs from the reference", label)
	}
	var gotBytes, wantBytes bytes.Buffer
	if err := gotTr.Encode(&gotBytes); err != nil {
		t.Fatal(err)
	}
	if err := wantTr.Encode(&wantBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
		t.Fatalf("%s: trace encodes differently from the reference", label)
	}
	if gotPlan.Mode != wantPlan.Mode || gotPlan.PredictedEndMS != wantPlan.PredictedEndMS {
		t.Fatalf("%s: plan mode/end %v/%v, reference %v/%v", label, gotPlan.Mode, gotPlan.PredictedEndMS, wantPlan.Mode, wantPlan.PredictedEndMS)
	}
	if !reflect.DeepEqual(gotPlan.Levels, wantPlan.Levels) {
		t.Fatalf("%s: plan levels differ from the reference", label)
	}
	if !reflect.DeepEqual(gotPlan.PredictedIdle, wantPlan.PredictedIdle) {
		t.Fatalf("%s: plan idle estimates differ from the reference", label)
	}
	if gotPlan.Ops != wantPlan.Ops || !reflect.DeepEqual(gotPlan.Calls, wantPlan.Calls) {
		t.Fatalf("%s: plan calls differ from the reference (%d ops, reference %d)", label, gotPlan.Ops, wantPlan.Ops)
	}
}

// randomSites returns a site stream over nd disks with clusters of
// requests sharing one cycle position and think times drawn at the
// given scale, so both short gaps and gaps long enough for standby
// occur.
func randomSites(rng *rand.Rand, m *cycles.Model, nd, n int, scaleMS float64) []tracegen.Site {
	var ss []tracegen.Site
	var cyc int64
	for len(ss) < n {
		cyc += m.CyclesForMS(rng.ExpFloat64() * scaleMS)
		for c := 1 + rng.Intn(5); c > 0 && len(ss) < n; c-- {
			i := len(ss)
			ss = append(ss, tracegen.Site{
				Nest: i / 50, Iter: int64(i), Unit: int64(i),
				Disk: rng.Intn(nd), Block: int64(i) * 128, Bytes: int64(4096 * (1 + rng.Intn(32))),
				Kind: trace.Read, CyclePos: cyc,
			})
		}
	}
	return ss
}

// TestInstrumentMatchesReferenceRandomized checks the merge-based
// call insertion against the global stable sort on randomized site
// streams, over both modes and the option knobs that move ops.
func TestInstrumentMatchesReferenceRandomized(t *testing.T) {
	p := disk.DefaultParams()
	rng := rand.New(rand.NewSource(1212))
	scales := []float64{0.5, 5, 40, 400, 5000, 40000}
	for trial := 0; trial < 150; trial++ {
		nd := 1 + rng.Intn(8)
		m := cycles.New(cycles.DefaultClockHz, float64(rng.Intn(10)), uint64(trial))
		m.BiasPct = float64(rng.Intn(15))
		ss := randomSites(rng, m, nd, rng.Intn(300), scales[rng.Intn(len(scales))])
		opts := Options{
			Mode:                 Mode(rng.Intn(2)),
			Disk:                 p,
			Model:                m,
			DisablePreactivation: rng.Intn(3) == 0,
		}
		switch rng.Intn(3) {
		case 1:
			opts.GuardMS = -1
		case 2:
			opts.GuardMS = 50 * rng.Float64()
		}
		switch rng.Intn(3) {
		case 1:
			opts.SafetyPct = -1
		case 2:
			opts.SafetyPct = 40 * rng.Float64()
		}
		assertSameAsReference(t, "rand", nd, ss, opts)
	}
	for _, mode := range []Mode{ModeTPM, ModeDRPM} {
		assertSameAsReference(t, "empty", 3, nil, Options{Mode: mode, Disk: p})
	}
}

// TestInstrumentMatchesReferenceWorkloads checks the six workloads at
// the paper's Table 1 settings, in both modes.
func TestInstrumentMatchesReferenceWorkloads(t *testing.T) {
	for _, in := range table1Inputs(t) {
		for _, mode := range []Mode{ModeTPM, ModeDRPM} {
			assertSameAsReference(t, in.name+"/"+mode.String(), workloads.DefaultDisks, in.sites,
				Options{Mode: mode, Disk: disk.DefaultParams(), Model: in.model})
		}
	}
}

// TestEmitSortsUnsortedDiskList hands emit a disk whose op list is out
// of key order, with key ties across disks, and checks the stream
// matches the global stable sort of the same ops in the same
// insertion order.
func TestEmitSortsUnsortedDiskList(t *testing.T) {
	m := cycles.New(cycles.DefaultClockHz, 5, 7)
	ss := make([]tracegen.Site, 6)
	for i := range ss {
		ss[i] = tracegen.Site{
			Nest: i / 3, Iter: int64(i), Unit: int64(i),
			Disk: i % 3, Block: int64(i), Bytes: 65536, Kind: trace.Read,
			CyclePos: int64(i/2) * 1000000,
		}
	}
	op := func(d, rpm int) trace.PowerOp { return trace.PowerOp{Disk: d, Kind: trace.OpSetRPM, RPM: rpm} }
	ops := []opItem{
		// Disk 0, out of order, with an exact tie (the two ops at
		// {2000000, 4, -1} must keep their relative order).
		{key: opKey{cyc: 2000000, anchor: 4, prio: -1}, op: op(0, 3000)},
		{key: opKey{cyc: 500000, anchor: 2, prio: -1}, op: op(0, 6000)},
		{key: opKey{cyc: 2000000, anchor: 4, prio: -1}, op: op(0, 9000)},
		{key: opKey{cyc: 0, anchor: 0, prio: 1}, op: op(0, 12000)},
		// Disk 1, in order, tying with disk 0's ops.
		{key: opKey{cyc: 500000, anchor: 2, prio: -1}, op: op(1, 6000)},
		{key: opKey{cyc: 2000000, anchor: 4, prio: -1}, op: op(1, 3000)},
		{key: opKey{cyc: 2000000, anchor: 5, prio: 2}, op: op(1, 12000)},
		{key: opKey{cyc: 3000000, anchor: 6, prio: -1}, op: op(1, 9000)},
	}
	// Disk 2: a long list in reverse key order, each key repeated
	// three times; insertion order must survive within each key.
	for i := 47; i >= 0; i-- {
		c := int64(i/3) * 200000
		ops = append(ops, opItem{key: opKey{cyc: c, anchor: int(2 * (c / 1000000)), prio: -1}, op: op(2, 1000*(i%3)+i)})
	}
	opStart := []int{0, 4, 8, len(ops)}
	if slices.IsSortedFunc(ops[:4], cmpOpItem) || slices.IsSortedFunc(ops[8:], cmpOpItem) {
		t.Fatal("the lists of disks 0 and 2 must start out of order")
	}
	items := make([]mergedItem, 0, len(ss)+len(ops))
	for i := range ss {
		items = append(items, mergedItem{cyc: ss[i].CyclePos, anchor: i, site: i})
	}
	for _, o := range ops {
		items = append(items, mergedItem{cyc: o.key.cyc, anchor: o.key.anchor, prio: o.key.prio, op: o.op, isOp: true})
	}
	svc := func(b int64) float64 { return float64(b) / 65536 }
	want := referenceEmit("fallback", 3, ss, items, m, svc)
	got := emit("fallback", 3, ss, ops, opStart, m, svc)
	if !reflect.DeepEqual(got, want) {
		for i := range want.Events {
			t.Logf("event %d: got %+v want %+v", i, got.Events[i].Op, want.Events[i].Op)
		}
		t.Fatal("emit with an unsorted disk list differs from the global stable sort")
	}
}

// TestSearchFromMatchesSortSearch checks the galloping search against
// sort.Search for every threshold and hint over small ranges.
func TestSearchFromMatchesSortSearch(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for threshold := 0; threshold <= n; threshold++ {
			f := func(i int) bool { return i >= threshold }
			for hint := -2; hint <= n+2; hint++ {
				if got, want := searchFrom(n, hint, f), sort.Search(n, f); got != want {
					t.Fatalf("n=%d threshold=%d hint=%d: searchFrom = %d, sort.Search = %d", n, threshold, hint, got, want)
				}
			}
		}
	}
}
