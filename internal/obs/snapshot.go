package obs

// Snapshot support: a point-in-time plain-struct copy of every
// counter, gauge, and histogram in a Collector. Exporters render from
// a snapshot rather than interleaving atomic loads with formatting,
// so a live scrape mid-run can never show torn histogram totals (a
// _count that disagrees with the bucket sums because observations
// landed between the two loads). The JSON tags make a snapshot
// directly servable as the live /status endpoint's body.

// HistogramSnapshot is a point-in-time copy of one Histogram. Count
// is derived from the loaded bucket counts, so Count == sum(Buckets)
// holds by construction even when the snapshot races concurrent
// observers.
type HistogramSnapshot struct {
	// Buckets holds per-bucket (non-cumulative) observation counts;
	// the last entry is the +Inf bucket.
	Buckets [len(bucketBoundsMS) + 1]int64 `json:"buckets"`
	Sum     float64                        `json:"sum"`
	Count   int64                          `json:"count"`
}

// snapshot copies h. The per-bucket loads race concurrent
// observations benignly: each bucket is internally consistent, and
// Count is summed from exactly the loaded values.
func (h *Histogram) snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = h.sum.Load()
	return s
}

// BucketBoundsMS returns the shared histogram bucket upper bounds
// (the +Inf bucket is implicit after the last bound).
func BucketBoundsMS() []float64 {
	out := make([]float64, len(bucketBoundsMS))
	copy(out, bucketBoundsMS[:])
	return out
}

// DiskSnapshot is a point-in-time copy of one disk's accumulators.
type DiskSnapshot struct {
	Requests int64 `json:"requests"`
	// StateMS maps residency-state label (DiskState.String) to
	// accumulated milliseconds.
	StateMS map[string]float64 `json:"state_ms"`
	// RPMMS maps RPM level to accumulated spinning milliseconds
	// (levels with zero residency are omitted); OtherMS catches RPMs
	// outside the disk's level grid.
	RPMMS   map[int]float64 `json:"rpm_ms,omitempty"`
	OtherMS float64         `json:"other_rpm_ms,omitempty"`
}

// Snapshot is a point-in-time copy of a whole Collector.
type Snapshot struct {
	SimRuns  int64 `json:"sim_runs"`
	Requests int64 `json:"requests"`
	// PowerOps maps op kind label (PowerOpKind.String) to count.
	PowerOps map[string]int64 `json:"power_ops"`
	// Spin-up mispredictions by flavor.
	MissOnDemand int64 `json:"spinup_miss_ondemand"`
	MissInflight int64 `json:"spinup_miss_inflight"`
	// Faults maps fault kind label (FaultKind.String) to count.
	Faults map[string]int64 `json:"faults"`

	ServiceMS HistogramSnapshot `json:"service_ms"`
	WaitMS    HistogramSnapshot `json:"wait_ms"`
	IdleMS    HistogramSnapshot `json:"idle_ms"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheWaits  int64 `json:"cache_singleflight_waits"`

	RunnerTasks  int64 `json:"runner_tasks"`
	RunnerBusyNS int64 `json:"runner_busy_ns"`
	RunnerActive int64 `json:"runner_workers_active"`
	RunnerQueue  int64 `json:"runner_queue_depth"`

	CellPanics  int64 `json:"cell_panics"`
	CellRetries int64 `json:"cell_retries"`

	JournalHits   int64 `json:"journal_hits"`
	JournalMisses int64 `json:"journal_misses"`

	ServeAccepted int64 `json:"serve_accepted"`
	ServeShed     int64 `json:"serve_shed"`
	ServeDeadline int64 `json:"serve_deadline"`
	ServeCanceled int64 `json:"serve_canceled"`
	ServeDrains   int64 `json:"serve_drains"`
	// ServeJournalErrors counts journal append failures seen by the
	// serving layer (every failed retry, before and after degrading).
	ServeJournalErrors int64 `json:"serve_journal_errors"`
	// ServeJournalRecoveries counts degraded-mode recoveries (the
	// journal re-probe re-attached durability).
	ServeJournalRecoveries int64             `json:"serve_journal_recoveries"`
	ServeInflight          int64             `json:"serve_inflight"`
	ServeQueued            int64             `json:"serve_queue_depth"`
	ServeWaitMS            HistogramSnapshot `json:"serve_queue_wait_ms"`
	ServeMS                HistogramSnapshot `json:"serve_handle_ms"`

	Disks []DiskSnapshot `json:"disks,omitempty"`
}

// Snapshot reads every counter, gauge, and histogram once and returns
// the copies. A nil collector returns a zero snapshot. The snapshot
// allocates (maps, disk slice); it is meant for scrape/export paths,
// not per-event ones.
func (c *Collector) Snapshot() Snapshot {
	var s Snapshot
	s.PowerOps = make(map[string]int64, int(numPowerOpKinds))
	s.Faults = make(map[string]int64, int(numFaultKinds))
	if c == nil {
		for k := PowerOpKind(0); k < numPowerOpKinds; k++ {
			s.PowerOps[k.String()] = 0
		}
		for k := FaultKind(0); k < numFaultKinds; k++ {
			s.Faults[k.String()] = 0
		}
		return s
	}
	s.SimRuns = c.simRuns.Load()
	s.Requests = c.requests.Load()
	for k := PowerOpKind(0); k < numPowerOpKinds; k++ {
		s.PowerOps[k.String()] = c.powerOps[k].Load()
	}
	s.MissOnDemand = c.missOnDemand.Load()
	s.MissInflight = c.missInflight.Load()
	for k := FaultKind(0); k < numFaultKinds; k++ {
		s.Faults[k.String()] = c.faults[k].Load()
	}
	s.ServiceMS = c.serviceMS.snapshot()
	s.WaitMS = c.waitMS.snapshot()
	s.IdleMS = c.idleMS.snapshot()
	s.CacheHits, s.CacheMisses, s.CacheWaits = c.cacheHits.Load(), c.cacheMisses.Load(), c.cacheWaits.Load()
	s.RunnerTasks = c.runnerTasks.Load()
	s.RunnerBusyNS = c.runnerBusyNS.Load()
	s.RunnerActive = c.runnerActive.Load()
	s.RunnerQueue = c.runnerQueue.Load()
	s.CellPanics, s.CellRetries = c.cellPanics.Load(), c.cellRetries.Load()
	s.JournalHits, s.JournalMisses = c.journalHits.Load(), c.journalMisses.Load()
	s.ServeAccepted, s.ServeShed, s.ServeDeadline, s.ServeCanceled, s.ServeDrains = c.ServeStats()
	s.ServeJournalErrors = c.ServeJournalErrors()
	s.ServeJournalRecoveries = c.ServeJournalRecoveries()
	s.ServeInflight, s.ServeQueued = c.ServeGauges()
	s.ServeWaitMS = c.serveWaitMS.snapshot()
	s.ServeMS = c.serveMS.snapshot()
	if ds := c.disks.Load(); ds != nil {
		s.Disks = make([]DiskSnapshot, len(*ds))
		for d, dm := range *ds {
			out := &s.Disks[d]
			out.Requests = dm.requests.Load()
			out.StateMS = make(map[string]float64, int(numDiskStates))
			for st := DiskState(0); st < numDiskStates; st++ {
				out.StateMS[st.String()] = dm.stateMS[st].Load()
			}
			for i := range dm.rpmMS {
				if ms := dm.rpmMS[i].Load(); ms != 0 {
					if out.RPMMS == nil {
						out.RPMMS = make(map[int]float64)
					}
					out.RPMMS[dm.minRPM+i*dm.rpmStep] = ms
				}
			}
			out.OtherMS = dm.otherMS.Load()
		}
	}
	return s
}
