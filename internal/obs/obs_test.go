package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	c.CountSimRun()
	c.EnsureDisks(4, 3000, 1200, 11)
	tl := c.Begin(4)
	if tl != nil {
		t.Fatal("nil collector opened a tally")
	}
	tl.ObserveRequest(0, 1, 2, 3)
	tl.ObserveResidency(0, StateIdle, 15000, 5)
	tl.CountPowerOp(OpSpinDown)
	tl.CountSpinupMiss(true)
	tl.CountFault(FaultRemap)
	tl.Commit()
	c.CountCacheHit()
	c.CountCacheMiss()
	c.CountCacheWait()
	c.RunnerTask(10)
	c.RunnerWorker(1)
	c.RunnerQueue(1)
	if c.Requests() != 0 || c.NumDisks() != 0 {
		t.Fatal("nil collector reported data")
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, c); err != nil {
		t.Fatalf("WritePrometheus(nil): %v", err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil collector exposition not empty: %q", sb.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	c := New()
	tl := c.Begin(0)
	vals := []float64{0, 0.5, 0.6, 10, 1e9}
	for _, v := range vals {
		tl.ObserveRequest(0, v, 0, 0)
	}
	tl.Commit()
	h := &c.serviceMS
	if h.Count() != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(vals))
	}
	if got := h.counts[0].Load(); got != 2 { // 0 and 0.5 both <= 0.5
		t.Errorf("bucket le=0.5 = %d, want 2", got)
	}
	if got := h.counts[len(bucketBoundsMS)].Load(); got != 1 { // 1e9 -> +Inf
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
	want := 0.0
	for _, v := range vals {
		want += v
	}
	if h.Sum() != want {
		t.Errorf("sum = %g, want %g", h.Sum(), want)
	}
}

func TestEnsureDisksGrowsAndKeeps(t *testing.T) {
	c := New()
	c.EnsureDisks(2, 3000, 1200, 11)
	tl := c.Begin(2)
	tl.ObserveResidency(1, StateIdle, 3000, 7)
	tl.Commit()
	c.EnsureDisks(4, 3000, 1200, 11) // grow; disk 1 data must survive
	c.EnsureDisks(1, 3000, 1200, 11) // shrink request is a no-op
	if c.NumDisks() != 4 {
		t.Fatalf("NumDisks = %d, want 4", c.NumDisks())
	}
	if got := c.disk(1).rpmMS[0].Load(); got != 7 {
		t.Fatalf("disk1 rpm residency lost on grow: %g", got)
	}
	// Out-of-range disks and an off-grid RPM must not panic; a tally
	// asked for more disks than EnsureDisks covered takes what exists.
	tl = c.Begin(9)
	tl.ObserveRequest(99, 1, 0, 0)
	tl.ObserveRequest(-1, 1, 0, 0)
	tl.ObserveResidency(99, StateIdle, 3000, 1)
	tl.ObserveResidency(0, StateIdle, 3001, 1)
	tl.Commit()
	if got := c.disk(0).otherMS.Load(); got != 1 {
		t.Fatalf("off-grid residency = %g, want 1", got)
	}
	if got := c.Requests(); got != 2 {
		t.Fatalf("requests = %d, want 2 (out-of-range disks still count)", got)
	}
}

func TestCollectorConcurrentUse(t *testing.T) {
	c := New()
	c.EnsureDisks(2, 3000, 1200, 11)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tl := c.Begin(2)
			defer tl.Commit()
			for i := 0; i < 1000; i++ {
				tl.ObserveRequest(i%2, 1.5, 0, 10)
				tl.ObserveResidency(i%2, StateIdle, 15000, 0.25)
				tl.CountPowerOp(OpSetRPM)
			}
		}()
	}
	wg.Wait()
	if got := c.Requests(); got != 8000 {
		t.Errorf("requests = %d, want 8000", got)
	}
	if got := c.PowerOps(OpSetRPM); got != 8000 {
		t.Errorf("set_rpm ops = %d, want 8000", got)
	}
	if got := c.serviceMS.Sum(); got != 8000*1.5 {
		t.Errorf("service sum = %g, want %g", got, 8000*1.5)
	}
}
