// Package obs is the engine's observability layer: a low-overhead
// metrics collector threaded through the simulator (request service
// and wait latency, idle-period lengths, per-disk state and RPM
// residency, power ops, spin-up mispredictions), the instance cache
// (hit/miss/singleflight-wait), and the worker pool (task counts,
// utilization, queue depth), plus two exporters — Prometheus text
// exposition (WritePrometheus) and Chrome trace-event / Perfetto JSON
// (WriteChromeTrace).
//
// A nil *Collector is a valid no-op everywhere: every method guards
// its receiver, so instrumented code paths carry a single branch and
// zero allocations when observability is off. One Collector may be
// shared by any number of concurrent simulations, cache lookups, and
// pool workers; its counters and histogram buckets are atomics.
//
// A simulation run does not update the collector per event. It opens
// a Tally (Collector.Begin), observes into the tally's plain fields,
// and the tally publishes to the collector every ChunkRequests
// requests and when the run commits it. The contract:
//
//   - Every count and every histogram bucket count is exact.
//   - Float accumulators (histogram sums, residency milliseconds) equal
//     the per-observation sums up to rounding: a tally sums each chunk
//     before adding it, which reassociates the additions.
//   - A sequential run is deterministic run to run, and the same
//     observation stream always publishes the same bits, since
//     publication happens at fixed request counts.
//   - A live read (/metrics, /status) lags a running simulation by
//     fewer than ChunkRequests of its requests; once the run returns,
//     successfully or not, everything it observed is published.
//
// Observation allocates nothing per event: tallies are reused through
// a free list on the collector, and per-disk storage is preallocated
// by EnsureDisks.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// afloat is an atomically-updatable float64 accumulator.
type afloat struct{ bits atomic.Uint64 }

func (f *afloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *afloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// bucketBoundsMS holds the shared latency/duration bucket upper
// bounds in milliseconds. Service times are single-digit ms, waits
// span zero to multi-second spin-ups, and idle periods reach minutes,
// so the grid covers 0.5 ms through 5 minutes.
var bucketBoundsMS = [16]float64{
	0.5, 1, 2.5, 5, 10, 25, 50, 100,
	250, 500, 1000, 2500, 5000, 15000, 60000, 300000,
}

// bucketIndex returns the index of the bucket v falls in; the last
// index is the +Inf bucket.
func bucketIndex(v float64) int {
	i := 0
	for i < len(bucketBoundsMS) && v > bucketBoundsMS[i] {
		i++
	}
	return i
}

// Histogram is a fixed-bucket histogram of millisecond durations.
// Observations are lock-free and allocation-free.
type Histogram struct {
	counts [len(bucketBoundsMS) + 1]atomic.Int64 // last bucket is +Inf
	sum    afloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations, summed from the buckets.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// DiskState labels per-disk residency time. The states mirror the
// simulator's power states, with spinning time split into idle and
// request service.
type DiskState uint8

// Disk residency states.
const (
	StateService DiskState = iota
	StateIdle
	StateStandby
	StateSpinDown
	StateSpinUp
	StateRPMShift
	numDiskStates
)

// String returns the Prometheus label value of the state.
func (s DiskState) String() string {
	switch s {
	case StateService:
		return "service"
	case StateIdle:
		return "idle"
	case StateStandby:
		return "standby"
	case StateSpinDown:
		return "spindown"
	case StateSpinUp:
		return "spinup"
	default:
		return "rpmshift"
	}
}

// PowerOpKind labels executed power-management operations.
type PowerOpKind uint8

// Power op kinds (matching the trace's call names).
const (
	OpSpinDown PowerOpKind = iota
	OpSpinUp
	OpSetRPM
	numPowerOpKinds
)

// String returns the Prometheus label value of the kind.
func (k PowerOpKind) String() string {
	switch k {
	case OpSpinDown:
		return "spin_down"
	case OpSpinUp:
		return "spin_up"
	default:
		return "set_rpm"
	}
}

// FaultKind labels injected-fault events (see internal/faults).
type FaultKind uint8

// Fault kinds.
const (
	// FaultSpinUpFail is one failed spin-up attempt.
	FaultSpinUpFail FaultKind = iota
	// FaultRetry is one spin-up retry (backoff taken after a failure).
	FaultRetry
	// FaultTimeout is a spin-up call abandoned at its timeout cap.
	FaultTimeout
	// FaultFallback is a request served on demand because an earlier
	// pre-activation gave up.
	FaultFallback
	// FaultRemap is a request that hit a remapped bad sector.
	FaultRemap
	// FaultDegraded is a request serviced inside a degradation window.
	FaultDegraded
	numFaultKinds
)

// String returns the Prometheus label value of the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultSpinUpFail:
		return "spinup_fail"
	case FaultRetry:
		return "spinup_retry"
	case FaultTimeout:
		return "spinup_timeout"
	case FaultFallback:
		return "ondemand_fallback"
	case FaultRemap:
		return "remap_hit"
	default:
		return "degraded_service"
	}
}

// diskMetrics holds one disk's accumulators. The RPM residency grid
// is fixed at creation (EnsureDisks) from the disk model's level
// parameters; residency at an RPM outside the grid lands in otherMS.
type diskMetrics struct {
	requests atomic.Int64
	stateMS  [numDiskStates]afloat
	minRPM   int
	rpmStep  int
	rpmMS    []afloat
	otherMS  afloat
}

// levelIndex maps an RPM value onto the residency grid.
func (d *diskMetrics) levelIndex(rpm int) (int, bool) {
	if d.rpmStep <= 0 {
		return 0, false
	}
	off := rpm - d.minRPM
	if off < 0 || off%d.rpmStep != 0 {
		return 0, false
	}
	i := off / d.rpmStep
	if i >= len(d.rpmMS) {
		return 0, false
	}
	return i, true
}

// Collector accumulates engine metrics. Construct with New; a nil
// *Collector is a valid no-op sink.
type Collector struct {
	simRuns  atomic.Int64
	requests atomic.Int64
	powerOps [numPowerOpKinds]atomic.Int64
	// Spin-up mispredictions: requests that blocked on a disk that
	// was not ready because of a spin-up. "inflight" is the paper's
	// pre-activation failure mode (the spin-up was issued but too
	// late); "ondemand" means no pre-activation happened at all (the
	// request found the disk in or heading to standby).
	missOnDemand atomic.Int64
	missInflight atomic.Int64

	// faults counts injected-fault events by kind (all zero unless a
	// fault plan is attached to the simulation).
	faults [numFaultKinds]atomic.Int64

	serviceMS Histogram
	waitMS    Histogram
	idleMS    Histogram

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheWaits  atomic.Int64

	runnerTasks  atomic.Int64
	runnerBusyNS atomic.Int64
	runnerActive atomic.Int64
	runnerQueue  atomic.Int64

	cellPanics  atomic.Int64
	cellRetries atomic.Int64

	journalHits   atomic.Int64
	journalMisses atomic.Int64

	// Serving-layer counters (see internal/serve): request admission,
	// load shedding, deadline expiries, client cancellations, and the
	// drain transition, plus live inflight/queued gauges and the
	// queue-wait and handler latency histograms.
	serveAccepted atomic.Int64
	serveShed     atomic.Int64
	serveDeadline atomic.Int64
	serveCanceled atomic.Int64
	serveDrains   atomic.Int64
	// serveJournalErrs counts journal append failures seen by the
	// serving layer, including every failed retry before it degrades
	// to memory-only operation.
	serveJournalErrs atomic.Int64
	// serveJournalRecov counts degraded-mode recoveries: the periodic
	// re-probe successfully re-attached the journal and durability
	// resumed.
	serveJournalRecov atomic.Int64
	serveInflight     atomic.Int64
	serveQueued       atomic.Int64
	serveWaitMS       Histogram
	serveMS           Histogram

	mu    sync.Mutex // serializes EnsureDisks growth; guards free
	disks atomic.Pointer[[]*diskMetrics]
	free  []*Tally // committed tallies kept for reuse (see Begin)
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// EnsureDisks guarantees per-disk storage for disks [0, n) with an
// RPM residency grid of numLevels levels starting at minRPM in steps
// of rpmStep. It is idempotent and may be called concurrently; disks
// already present keep their grid. Call it once per simulation setup
// so the per-event paths never allocate.
func (c *Collector) EnsureDisks(n, minRPM, rpmStep, numLevels int) {
	if c == nil {
		return
	}
	if cur := c.disks.Load(); cur != nil && len(*cur) >= n {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.disks.Load()
	if cur != nil && len(*cur) >= n {
		return
	}
	var ds []*diskMetrics
	if cur != nil {
		ds = append(ds, *cur...)
	}
	for i := len(ds); i < n; i++ {
		if numLevels < 1 {
			numLevels = 1
		}
		ds = append(ds, &diskMetrics{minRPM: minRPM, rpmStep: rpmStep, rpmMS: make([]afloat, numLevels)})
	}
	c.disks.Store(&ds)
}

// NumDisks reports how many disks EnsureDisks has covered.
func (c *Collector) NumDisks() int {
	if c == nil {
		return 0
	}
	ds := c.disks.Load()
	if ds == nil {
		return 0
	}
	return len(*ds)
}

// CountSimRun records the start of one simulation run.
func (c *Collector) CountSimRun() {
	if c == nil {
		return
	}
	c.simRuns.Add(1)
}

// SpinupMisses returns the (ondemand, inflight) misprediction counts.
func (c *Collector) SpinupMisses() (onDemand, inflight int64) {
	if c == nil {
		return 0, 0
	}
	return c.missOnDemand.Load(), c.missInflight.Load()
}

// Requests returns the total request count.
func (c *Collector) Requests() int64 {
	if c == nil {
		return 0
	}
	return c.requests.Load()
}

// PowerOps returns the executed op count for one kind.
func (c *Collector) PowerOps(k PowerOpKind) int64 {
	if c == nil {
		return 0
	}
	return c.powerOps[k].Load()
}

// FaultCount returns the injected-fault event count for one kind.
func (c *Collector) FaultCount(k FaultKind) int64 {
	if c == nil {
		return 0
	}
	return c.faults[k].Load()
}

// CountCacheHit records an instance-cache hit (preparation already
// memoized).
func (c *Collector) CountCacheHit() {
	if c == nil {
		return
	}
	c.cacheHits.Add(1)
}

// CountCacheMiss records an instance-cache miss (this caller did the
// preparation).
func (c *Collector) CountCacheMiss() {
	if c == nil {
		return
	}
	c.cacheMisses.Add(1)
}

// CountCacheWait records a singleflight wait (another goroutine was
// already preparing the same key and this caller blocked on it).
func (c *Collector) CountCacheWait() {
	if c == nil {
		return
	}
	c.cacheWaits.Add(1)
}

// CacheStats returns the (hits, misses, singleflight-waits) counts.
func (c *Collector) CacheStats() (hits, misses, waits int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.cacheHits.Load(), c.cacheMisses.Load(), c.cacheWaits.Load()
}

// RunnerTask records one completed worker-pool cell and the time it
// kept its worker busy.
func (c *Collector) RunnerTask(busyNS int64) {
	if c == nil {
		return
	}
	c.runnerTasks.Add(1)
	c.runnerBusyNS.Add(busyNS)
}

// RunnerWorker adjusts the active-worker gauge.
func (c *Collector) RunnerWorker(delta int64) {
	if c == nil {
		return
	}
	c.runnerActive.Add(delta)
}

// RunnerQueue adjusts the queued-cell gauge.
func (c *Collector) RunnerQueue(delta int64) {
	if c == nil {
		return
	}
	c.runnerQueue.Add(delta)
}

// RunnerStats returns the pool counters: completed tasks, cumulative
// busy nanoseconds, and the current active/queued gauges.
func (c *Collector) RunnerStats() (tasks, busyNS, active, queued int64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	return c.runnerTasks.Load(), c.runnerBusyNS.Load(), c.runnerActive.Load(), c.runnerQueue.Load()
}

// CountCellPanic records a worker-pool cell recovered from a panic.
func (c *Collector) CountCellPanic() {
	if c == nil {
		return
	}
	c.cellPanics.Add(1)
}

// CountCellRetry records one retry of a failing worker-pool cell.
func (c *Collector) CountCellRetry() {
	if c == nil {
		return
	}
	c.cellRetries.Add(1)
}

// CellStats returns the (recovered panics, retries) cell counts.
func (c *Collector) CellStats() (panics, retries int64) {
	if c == nil {
		return 0, 0
	}
	return c.cellPanics.Load(), c.cellRetries.Load()
}

// CountJournalHit records an experiment cell served from the result
// journal (its simulation was skipped on resume).
func (c *Collector) CountJournalHit() {
	if c == nil {
		return
	}
	c.journalHits.Add(1)
}

// CountJournalMiss records an experiment cell that was computed and
// appended to the result journal.
func (c *Collector) CountJournalMiss() {
	if c == nil {
		return
	}
	c.journalMisses.Add(1)
}

// JournalStats returns the (hits, misses) journal cell counts.
func (c *Collector) JournalStats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.journalHits.Load(), c.journalMisses.Load()
}

// ServeAdmitted records one request admitted past the serving layer's
// admission queue after waiting waitMS milliseconds for a slot.
func (c *Collector) ServeAdmitted(waitMS float64) {
	if c == nil {
		return
	}
	c.serveAccepted.Add(1)
	c.serveWaitMS.Observe(waitMS)
}

// ServeFinished records one admitted request's handler latency.
func (c *Collector) ServeFinished(handleMS float64) {
	if c == nil {
		return
	}
	c.serveMS.Observe(handleMS)
}

// CountServeShed records a request rejected by admission control
// (queue full, or the queue-wait budget expired before a slot freed).
func (c *Collector) CountServeShed() {
	if c == nil {
		return
	}
	c.serveShed.Add(1)
}

// CountServeDeadline records a request whose deadline expired while
// it was queued or executing (a 504 response).
func (c *Collector) CountServeDeadline() {
	if c == nil {
		return
	}
	c.serveDeadline.Add(1)
}

// CountServeCanceled records a request abandoned by its client before
// a result could be written.
func (c *Collector) CountServeCanceled() {
	if c == nil {
		return
	}
	c.serveCanceled.Add(1)
}

// CountServeDrain records one drain transition (readiness flipped to
// draining; the listener stops accepting new work).
func (c *Collector) CountServeDrain() {
	if c == nil {
		return
	}
	c.serveDrains.Add(1)
}

// CountServeJournalError records one journal append failure in the
// serving layer (each failed retry counts separately).
func (c *Collector) CountServeJournalError() {
	if c == nil {
		return
	}
	c.serveJournalErrs.Add(1)
}

// ServeJournalErrors returns the journal append failures the serving
// layer has observed.
func (c *Collector) ServeJournalErrors() int64 {
	if c == nil {
		return 0
	}
	return c.serveJournalErrs.Load()
}

// CountServeJournalRecovery records one degraded-mode recovery: the
// serving layer re-attached its journal and durability resumed.
func (c *Collector) CountServeJournalRecovery() {
	if c == nil {
		return
	}
	c.serveJournalRecov.Add(1)
}

// ServeJournalRecoveries returns how many times the serving layer has
// recovered from journal degradation.
func (c *Collector) ServeJournalRecoveries() int64 {
	if c == nil {
		return 0
	}
	return c.serveJournalRecov.Load()
}

// ServeInflight adjusts the executing-request gauge.
func (c *Collector) ServeInflight(delta int64) {
	if c == nil {
		return
	}
	c.serveInflight.Add(delta)
}

// ServeQueued adjusts the admission-queue depth gauge.
func (c *Collector) ServeQueued(delta int64) {
	if c == nil {
		return
	}
	c.serveQueued.Add(delta)
}

// ServeStats returns the serving-layer counters: admitted requests,
// shed requests, deadline expiries, client cancellations, and drain
// transitions.
func (c *Collector) ServeStats() (accepted, shed, deadline, canceled, drains int64) {
	if c == nil {
		return 0, 0, 0, 0, 0
	}
	return c.serveAccepted.Load(), c.serveShed.Load(),
		c.serveDeadline.Load(), c.serveCanceled.Load(), c.serveDrains.Load()
}

// ServeGauges returns the live (inflight, queued) serving gauges.
func (c *Collector) ServeGauges() (inflight, queued int64) {
	if c == nil {
		return 0, 0
	}
	return c.serveInflight.Load(), c.serveQueued.Load()
}
