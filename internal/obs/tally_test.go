package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// obsCall is one simulator-side observation, replayed through a tally
// and through the per-observation reference.
type obsCall struct {
	kind  int // 0 request, 1 residency, 2 power op, 3 spin-up miss, 4 fault
	d     int
	st    DiskState
	rpm   int
	a, b  float64
	c     float64
	op    PowerOpKind
	fault FaultKind
	flag  bool
}

const (
	streamDisks   = 3
	streamMinRPM  = 3000
	streamRPMStep = 1200
	streamLevels  = 11
)

// randomStream returns a stream of nReqs requests with residency,
// power-op, miss and fault calls between them, covering out-of-range
// disks, off-grid RPMs, every state and every kind, and a trailing
// residency tail like a run's Finish.
func randomStream(rng *rand.Rand, nReqs int) []obsCall {
	disk := func() int { return rng.Intn(streamDisks+3) - 1 } // -1 .. streamDisks+1
	rpm := func() int {
		if rng.Intn(5) == 0 {
			return streamMinRPM + rng.Intn(20000) // mostly off-grid
		}
		return streamMinRPM + streamRPMStep*rng.Intn(streamLevels)
	}
	ms := func() float64 { return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(7)-1)) }
	var calls []obsCall
	between := func() {
		for n := rng.Intn(4); n > 0; n-- {
			switch rng.Intn(4) {
			case 0:
				calls = append(calls, obsCall{kind: 1, d: disk(), st: DiskState(rng.Intn(int(numDiskStates))), rpm: rpm(), a: ms()})
			case 1:
				calls = append(calls, obsCall{kind: 2, op: PowerOpKind(rng.Intn(int(numPowerOpKinds)))})
			case 2:
				calls = append(calls, obsCall{kind: 3, flag: rng.Intn(2) == 0})
			default:
				calls = append(calls, obsCall{kind: 4, fault: FaultKind(rng.Intn(int(numFaultKinds)))})
			}
		}
	}
	for i := 0; i < nReqs; i++ {
		between()
		wait := 0.0
		if rng.Intn(10) == 0 {
			wait = ms()
		}
		calls = append(calls, obsCall{kind: 0, d: disk(), a: ms(), b: wait, c: ms()})
	}
	between()
	for d := 0; d < streamDisks; d++ {
		calls = append(calls, obsCall{kind: 1, d: d, st: StateIdle, rpm: rpm(), a: ms()})
	}
	return calls
}

func newStreamCollector() *Collector {
	c := New()
	c.EnsureDisks(streamDisks, streamMinRPM, streamRPMStep, streamLevels)
	return c
}

// replayTally runs calls through one tally on c.
func replayTally(c *Collector, calls []obsCall) {
	tl := c.Begin(streamDisks)
	defer tl.Commit()
	for _, o := range calls {
		switch o.kind {
		case 0:
			tl.ObserveRequest(o.d, o.a, o.b, o.c)
		case 1:
			tl.ObserveResidency(o.d, o.st, o.rpm, o.a)
		case 2:
			tl.CountPowerOp(o.op)
		case 3:
			tl.CountSpinupMiss(o.flag)
		default:
			tl.CountFault(o.fault)
		}
	}
}

// replayReference runs calls through the per-observation reference.
func replayReference(c *Collector, calls []obsCall) {
	for _, o := range calls {
		switch o.kind {
		case 0:
			c.refObserveRequest(o.d, o.a, o.b, o.c)
		case 1:
			c.refObserveResidency(o.d, o.st, o.rpm, o.a)
		case 2:
			c.refCountPowerOp(o.op)
		case 3:
			c.refCountSpinupMiss(o.flag)
		default:
			c.refCountFault(o.fault)
		}
	}
}

func closeEnough(got, want float64) bool {
	return got == want || math.Abs(got-want) <= 1e-12*math.Max(math.Abs(got), math.Abs(want))
}

// compareSnapshots requires identical counts and buckets and sums
// equal within 1e-12 relative.
func compareSnapshots(t *testing.T, got, want Snapshot) {
	t.Helper()
	if got.Requests != want.Requests || got.MissOnDemand != want.MissOnDemand || got.MissInflight != want.MissInflight {
		t.Errorf("requests/misses = %d/%d/%d, want %d/%d/%d", got.Requests, got.MissOnDemand, got.MissInflight,
			want.Requests, want.MissOnDemand, want.MissInflight)
	}
	for k, v := range want.PowerOps {
		if got.PowerOps[k] != v {
			t.Errorf("power op %s = %d, want %d", k, got.PowerOps[k], v)
		}
	}
	for k, v := range want.Faults {
		if got.Faults[k] != v {
			t.Errorf("fault %s = %d, want %d", k, got.Faults[k], v)
		}
	}
	for name, pair := range map[string][2]HistogramSnapshot{
		"service": {got.ServiceMS, want.ServiceMS},
		"wait":    {got.WaitMS, want.WaitMS},
		"idle":    {got.IdleMS, want.IdleMS},
	} {
		g, w := pair[0], pair[1]
		if g.Buckets != w.Buckets || g.Count != w.Count {
			t.Errorf("%s histogram buckets %v (count %d), want %v (count %d)", name, g.Buckets, g.Count, w.Buckets, w.Count)
		}
		if !closeEnough(g.Sum, w.Sum) {
			t.Errorf("%s histogram sum = %.17g, want %.17g", name, g.Sum, w.Sum)
		}
	}
	if len(got.Disks) != len(want.Disks) {
		t.Fatalf("disks = %d, want %d", len(got.Disks), len(want.Disks))
	}
	for d := range want.Disks {
		g, w := got.Disks[d], want.Disks[d]
		if g.Requests != w.Requests {
			t.Errorf("disk %d requests = %d, want %d", d, g.Requests, w.Requests)
		}
		for st, v := range w.StateMS {
			if !closeEnough(g.StateMS[st], v) {
				t.Errorf("disk %d state %s = %.17g ms, want %.17g", d, st, g.StateMS[st], v)
			}
		}
		if len(g.RPMMS) != len(w.RPMMS) {
			t.Errorf("disk %d rpm levels %v, want %v", d, g.RPMMS, w.RPMMS)
		}
		for rpm, v := range w.RPMMS {
			if !closeEnough(g.RPMMS[rpm], v) {
				t.Errorf("disk %d rpm %d = %.17g ms, want %.17g", d, rpm, g.RPMMS[rpm], v)
			}
		}
		if !closeEnough(g.OtherMS, w.OtherMS) {
			t.Errorf("disk %d other = %.17g ms, want %.17g", d, g.OtherMS, w.OtherMS)
		}
	}
}

// TestTallyMatchesReference drives random observation streams through
// a tally and through the per-observation reference, at lengths on
// both sides of the publish boundary.
func TestTallyMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, ChunkRequests - 1, ChunkRequests, ChunkRequests + 1, 5000} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("reqs=%d/seed=%d", n, seed), func(t *testing.T) {
				calls := randomStream(rand.New(rand.NewSource(seed*7919+int64(n))), n)
				tc, rc := newStreamCollector(), newStreamCollector()
				replayTally(tc, calls)
				replayReference(rc, calls)
				compareSnapshots(t, tc.Snapshot(), rc.Snapshot())
			})
		}
	}
}

// TestTallyDeterministic requires one observation stream to publish
// the same bits every time.
func TestTallyDeterministic(t *testing.T) {
	calls := randomStream(rand.New(rand.NewSource(42)), 5000)
	var out [2]bytes.Buffer
	for i := range out {
		c := newStreamCollector()
		replayTally(c, calls)
		replayTally(c, calls[:len(calls)/3])
		if err := WritePrometheus(&out[i], c); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("identical tally runs rendered different expositions")
	}
}

// TestTallyPublishesPerChunk pins the liveness bound: nothing is
// visible before the first ChunkRequests requests, a full chunk is
// visible at once, and Commit publishes the rest.
func TestTallyPublishesPerChunk(t *testing.T) {
	c := newStreamCollector()
	tl := c.Begin(streamDisks)
	for i := 1; i <= 2*ChunkRequests+7; i++ {
		tl.ObserveResidency(0, StateService, streamMinRPM, 1)
		tl.ObserveRequest(0, 1, 0, 1)
		want := int64(i / ChunkRequests * ChunkRequests)
		if got := c.Requests(); got != want {
			t.Fatalf("after %d requests the collector shows %d, want %d", i, got, want)
		}
		if got := c.Snapshot().Disks[0].StateMS["service"]; got != float64(want) {
			t.Fatalf("after %d requests service residency shows %g, want %g", i, got, float64(want))
		}
	}
	tl.CountPowerOp(OpSpinUp)
	tl.Commit()
	if c.Requests() != 2*ChunkRequests+7 || c.PowerOps(OpSpinUp) != 1 {
		t.Fatalf("after Commit: requests %d, spin-ups %d", c.Requests(), c.PowerOps(OpSpinUp))
	}
}

// TestTallyReuse requires committed tallies to be reused: a warm
// Begin/Commit cycle allocates nothing, and the free list never holds
// more tallies than were open at once.
func TestTallyReuse(t *testing.T) {
	c := newStreamCollector()
	calls := randomStream(rand.New(rand.NewSource(7)), 600)
	replayTally(c, calls)
	if allocs := testing.AllocsPerRun(20, func() { replayTally(c, calls) }); allocs != 0 {
		t.Errorf("warm tally cycle allocated %.0f times, want 0", allocs)
	}
	if len(c.free) != 1 {
		t.Errorf("sequential cycles left %d tallies on the free list, want 1", len(c.free))
	}

	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				replayTally(c, calls)
			}
		}()
	}
	wg.Wait()
	if n := len(c.free); n < 1 || n > workers {
		t.Errorf("free list holds %d tallies after %d concurrent workers", n, workers)
	}
}

// BenchmarkObserveParallel prices one request's observations (idle
// and service residency, then the request) from concurrent runs on
// one shared collector: per observation through the reference, and
// staged in a tally per goroutine.
func BenchmarkObserveParallel(b *testing.B) {
	b.Run("reference", func(b *testing.B) {
		c := newStreamCollector()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				d := i % streamDisks
				c.refObserveResidency(d, StateIdle, streamMinRPM, 3.5)
				c.refObserveResidency(d, StateService, streamMinRPM, 1.25)
				c.refObserveRequest(d, 1.25, 0, 3.5)
			}
		})
	})
	b.Run("tally", func(b *testing.B) {
		c := newStreamCollector()
		b.RunParallel(func(pb *testing.PB) {
			tl := c.Begin(streamDisks)
			defer tl.Commit()
			for i := 0; pb.Next(); i++ {
				d := i % streamDisks
				tl.ObserveResidency(d, StateIdle, streamMinRPM, 3.5)
				tl.ObserveResidency(d, StateService, streamMinRPM, 1.25)
				tl.ObserveRequest(d, 1.25, 0, 3.5)
			}
		})
	})
}
