package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSnapshotConsistentUnderWriters is the torn-total regression
// test: while runs publish tallies into the collector, every snapshot
// must satisfy Count == sum(Buckets) for each histogram — the
// invariant a count loaded apart from the buckets cannot guarantee
// mid-scrape.
func TestSnapshotConsistentUnderWriters(t *testing.T) {
	c := New()
	c.EnsureDisks(2, 4200, 600, 8)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Short runs publish mid-run and at Commit, so snapshots
			// race both.
			for !stop.Load() {
				tl := c.Begin(2)
				for i := 0; i < ChunkRequests+g*97; i++ {
					tl.ObserveRequest(i%2, float64(i%7), float64(i%3), float64(i%1000))
					tl.ObserveResidency(i%2, StateIdle, 4200+600*(i%8), 1.5)
					tl.CountPowerOp(PowerOpKind(i % int(numPowerOpKinds)))
					tl.CountFault(FaultKind(i % int(numFaultKinds)))
				}
				tl.Commit()
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := c.Snapshot()
		for name, h := range map[string]*HistogramSnapshot{
			"service": &s.ServiceMS, "wait": &s.WaitMS, "idle": &s.IdleMS,
		} {
			var sum int64
			for _, b := range h.Buckets {
				sum += b
			}
			if sum != h.Count {
				t.Errorf("snapshot %d: %s histogram torn: count %d != bucket sum %d", i, name, h.Count, sum)
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	// A concurrent Prometheus render must also hold the invariant:
	// the +Inf cumulative bucket equals _count for every histogram.
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c); err != nil {
		t.Fatal(err)
	}
	checkExpositionTotals(t, buf.String())
}

// checkExpositionTotals parses the exposition's histogram lines and
// asserts each family's +Inf bucket equals its _count.
func checkExpositionTotals(t *testing.T, text string) {
	t.Helper()
	inf := make(map[string]string)
	count := make(map[string]string)
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, `_bucket{le="+Inf"}`) {
			name := line[:strings.Index(line, "_bucket")]
			inf[name] = line[strings.LastIndex(line, " ")+1:]
		} else if i := strings.Index(line, "_count "); i >= 0 && !strings.HasPrefix(line, "#") {
			count[line[:i]] = line[i+len("_count "):]
		}
	}
	if len(inf) == 0 || len(inf) != len(count) {
		t.Fatalf("exposition parse found %d +Inf buckets, %d counts", len(inf), len(count))
	}
	for name, v := range inf {
		if count[name] != v {
			t.Errorf("%s: +Inf bucket %s != count %s", name, v, count[name])
		}
	}
}

func TestSnapshotValues(t *testing.T) {
	c := New()
	c.EnsureDisks(1, 6000, 1200, 4)
	c.CountSimRun()
	tl := c.Begin(1)
	tl.ObserveRequest(0, 3, 0, 120)
	tl.ObserveRequest(0, 4, 50, 9000)
	tl.ObserveResidency(0, StateService, 6000, 7)
	tl.ObserveResidency(0, StateStandby, 0, 300)
	tl.ObserveResidency(0, StateIdle, 4242, 1) // off-grid -> other
	tl.CountPowerOp(OpSpinDown)
	tl.CountSpinupMiss(true)
	tl.CountFault(FaultRemap)
	tl.Commit()
	c.CountCacheHit()
	c.RunnerTask(2e9)
	c.RunnerQueue(3)
	c.CountCellRetry()
	c.CountJournalHit()

	s := c.Snapshot()
	if s.SimRuns != 1 || s.Requests != 2 {
		t.Fatalf("runs/requests = %d/%d", s.SimRuns, s.Requests)
	}
	if s.ServiceMS.Count != 2 || s.ServiceMS.Sum != 7 {
		t.Fatalf("service histogram = %+v", s.ServiceMS)
	}
	if s.PowerOps["spin_down"] != 1 || s.PowerOps["spin_up"] != 0 {
		t.Fatalf("power ops = %v", s.PowerOps)
	}
	if s.MissOnDemand != 1 || s.MissInflight != 0 {
		t.Fatalf("misses = %d/%d", s.MissOnDemand, s.MissInflight)
	}
	if s.Faults["remap_hit"] != 1 {
		t.Fatalf("faults = %v", s.Faults)
	}
	if len(s.Disks) != 1 {
		t.Fatalf("disks = %d", len(s.Disks))
	}
	d := s.Disks[0]
	if d.Requests != 2 || d.StateMS["service"] != 7 || d.StateMS["standby"] != 300 {
		t.Fatalf("disk snapshot = %+v", d)
	}
	if d.RPMMS[6000] != 7 || d.OtherMS != 1 {
		t.Fatalf("rpm residency = %v other %v", d.RPMMS, d.OtherMS)
	}
	if s.CacheHits != 1 || s.RunnerTasks != 1 || s.RunnerBusyNS != 2e9 || s.RunnerQueue != 3 {
		t.Fatalf("engine counters: %+v", s)
	}
	if s.CellRetries != 1 || s.JournalHits != 1 {
		t.Fatalf("cell/journal counters: %+v", s)
	}

	// The snapshot is the /status body; it must marshal cleanly with
	// integer-keyed RPM maps becoming string keys.
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"6000":7`) {
		t.Fatalf("marshalled snapshot lacks rpm residency: %s", b)
	}
}

func TestSnapshotNil(t *testing.T) {
	var c *Collector
	s := c.Snapshot()
	if s.Requests != 0 || len(s.Disks) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	// Label maps are populated (with zeros) so renderers need no nil
	// checks.
	if _, ok := s.PowerOps["spin_up"]; !ok {
		t.Fatal("nil snapshot lacks power-op labels")
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil collector rendered %d bytes", buf.Len())
	}
}

// TestPrometheusSnapshotRender pins the snapshot-rendered exposition
// to the same shape the pre-snapshot exporter produced.
func TestPrometheusSnapshotRender(t *testing.T) {
	c := New()
	c.EnsureDisks(1, 6000, 1200, 2)
	tl := c.Begin(1)
	tl.ObserveRequest(0, 3, 0, 120)
	tl.ObserveResidency(0, StateIdle, 6000, 10)
	tl.Commit()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"sdpm_requests_total 1\n",
		fmt.Sprintf("sdpm_request_service_ms_bucket{le=%q} 1\n", "5"),
		"sdpm_request_service_ms_sum 3\n",
		"sdpm_request_service_ms_count 1\n",
		"sdpm_disk_rpm_ms_total{disk=\"0\",rpm=\"6000\"} 10\n",
		"sdpm_disk_state_ms_total{disk=\"0\",state=\"idle\"} 10\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
