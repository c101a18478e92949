package obs

import "sync/atomic"

// ChunkRequests is the number of requests a Tally accumulates before
// it publishes them to its collector. It plays the part events.ChunkSize
// plays for an event batch, and it bounds how far a live /metrics or
// /status read lags a running simulation: fewer than ChunkRequests of
// that run's requests.
const ChunkRequests = 512

// histTally is a Histogram's plain, single-goroutine counterpart.
type histTally struct {
	counts [len(bucketBoundsMS) + 1]int64
	sum    float64
}

func (h *histTally) observe(v float64) {
	h.counts[bucketIndex(v)]++
	h.sum += v
}

// publish adds h into dst, one atomic add per non-zero accumulator,
// and zeroes h.
func (h *histTally) publish(dst *Histogram) {
	for i := range h.counts {
		addInt(&dst.counts[i], &h.counts[i])
	}
	addFloat(&dst.sum, &h.sum)
}

// diskTally is one disk's staged accumulators. dm is the collector's
// storage for the disk, whose RPM grid rpmMS mirrors.
type diskTally struct {
	dm       *diskMetrics
	requests int64
	stateMS  [numDiskStates]float64
	rpmMS    []float64
	otherMS  float64
}

// Tally is one simulation run's staging area in front of a shared
// Collector. A run observes every request, residency span, power op
// and fault; through the collector directly each observation is a
// handful of atomic read-modify-writes on cache lines that every
// concurrent run shares. A Tally instead accumulates in plain fields
// and publishes to the collector every ChunkRequests requests and at
// Commit, one atomic add per non-zero accumulator. Commit returns the
// tally to its collector for reuse, so a warm Begin/Commit cycle
// allocates nothing.
//
// Counts and bucket counts reach the collector exactly. Float
// accumulators (histogram sums, residency milliseconds) are summed
// per chunk before they are added, so they equal the per-observation
// sums up to rounding. Publication happens at fixed request counts,
// so one observation stream always yields the same bits.
//
// A Tally is for one goroutine. A nil *Tally (from a nil Collector)
// is inert. A Tally must not be used after Commit.
type Tally struct {
	c *Collector
	// requests counts the requests observed since the last publish.
	requests     int64
	powerOps     [numPowerOpKinds]int64
	missOnDemand int64
	missInflight int64
	faults       [numFaultKinds]int64
	serviceMS    histTally
	waitMS       histTally
	idleMS       histTally
	disks        []diskTally
	rpmBuf       []float64 // backing array of every disks[i].rpmMS
}

// Begin opens a tally on c for disks [0, numDisks), as far as
// EnsureDisks has covered them; observations of any other disk feed
// only the collector-wide counters. A nil collector returns a nil
// tally.
func (c *Collector) Begin(numDisks int) *Tally {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	var t *Tally
	if n := len(c.free); n > 0 {
		t = c.free[n-1]
		c.free = c.free[:n-1]
	}
	c.mu.Unlock()
	if t == nil {
		t = &Tally{}
	}
	t.c = c
	var dms []*diskMetrics
	if p := c.disks.Load(); p != nil {
		dms = *p
	}
	numDisks = max(0, min(numDisks, len(dms)))
	levels := 0
	for _, dm := range dms[:numDisks] {
		levels += len(dm.rpmMS)
	}
	// A published tally is all zeros, so reused storage needs no
	// clearing.
	if cap(t.disks) < numDisks {
		t.disks = make([]diskTally, numDisks)
	}
	if cap(t.rpmBuf) < levels {
		t.rpmBuf = make([]float64, levels)
	}
	t.disks = t.disks[:numDisks]
	off := 0
	for d, dm := range dms[:numDisks] {
		n := len(dm.rpmMS)
		t.disks[d].dm = dm
		t.disks[d].rpmMS = t.rpmBuf[off : off+n : off+n]
		off += n
	}
	return t
}

// Commit publishes everything staged and returns the tally to its
// collector for reuse. Committing a nil tally is a no-op.
func (t *Tally) Commit() {
	if t == nil {
		return
	}
	t.publish()
	c := t.c
	t.c = nil
	c.mu.Lock()
	// The free list never holds more tallies than were open at once,
	// so its size is bounded by the simulations' concurrency.
	c.free = append(c.free, t)
	c.mu.Unlock()
}

// ObserveRequest records one serviced request on disk d: its service
// time, its readiness wait, and the idle period that ended at its
// issue. Every ChunkRequests-th request publishes the tally.
func (t *Tally) ObserveRequest(d int, svcMS, waitMS, idleMS float64) {
	if t == nil {
		return
	}
	if uint(d) < uint(len(t.disks)) {
		t.disks[d].requests++
	}
	t.serviceMS.observe(svcMS)
	t.waitMS.observe(waitMS)
	t.idleMS.observe(idleMS)
	t.requests++
	if t.requests == ChunkRequests {
		t.publish()
	}
}

// ObserveResidency accumulates ms of residency for disk d in the
// given state; rpm attributes spinning time (service/idle) to the
// disk's RPM residency grid and is ignored for the other states.
func (t *Tally) ObserveResidency(d int, st DiskState, rpm int, ms float64) {
	if t == nil || uint(d) >= uint(len(t.disks)) {
		return
	}
	dt := &t.disks[d]
	dt.stateMS[st] += ms
	if st == StateService || st == StateIdle {
		if i, ok := dt.dm.levelIndex(rpm); ok {
			dt.rpmMS[i] += ms
		} else {
			dt.otherMS += ms
		}
	}
}

// CountPowerOp records one executed power-management operation.
func (t *Tally) CountPowerOp(k PowerOpKind) {
	if t == nil {
		return
	}
	t.powerOps[k]++
}

// CountSpinupMiss records a request that blocked on a spin-up:
// onDemand when the disk was still in (or heading to) standby — no
// pre-activation at all — and in-flight otherwise (the spin-up was
// issued but completed too late).
func (t *Tally) CountSpinupMiss(onDemand bool) {
	if t == nil {
		return
	}
	if onDemand {
		t.missOnDemand++
	} else {
		t.missInflight++
	}
}

// CountFault records one injected-fault event.
func (t *Tally) CountFault(k FaultKind) {
	if t == nil {
		return
	}
	t.faults[k]++
}

// publish adds every non-zero accumulator into the collector and
// zeroes it.
func (t *Tally) publish() {
	c := t.c
	addInt(&c.requests, &t.requests)
	for k := range t.powerOps {
		addInt(&c.powerOps[k], &t.powerOps[k])
	}
	addInt(&c.missOnDemand, &t.missOnDemand)
	addInt(&c.missInflight, &t.missInflight)
	for k := range t.faults {
		addInt(&c.faults[k], &t.faults[k])
	}
	t.serviceMS.publish(&c.serviceMS)
	t.waitMS.publish(&c.waitMS)
	t.idleMS.publish(&c.idleMS)
	for d := range t.disks {
		dt := &t.disks[d]
		dm := dt.dm
		addInt(&dm.requests, &dt.requests)
		for st := range dt.stateMS {
			addFloat(&dm.stateMS[st], &dt.stateMS[st])
		}
		for i := range dt.rpmMS {
			addFloat(&dm.rpmMS[i], &dt.rpmMS[i])
		}
		addFloat(&dm.otherMS, &dt.otherMS)
	}
}

// addInt moves a staged count into its collector counter.
func addInt(dst *atomic.Int64, v *int64) {
	if *v != 0 {
		dst.Add(*v)
		*v = 0
	}
}

// addFloat moves a staged float accumulator into its collector
// counterpart.
func addFloat(dst *afloat, v *float64) {
	if *v != 0 {
		dst.Add(*v)
		*v = 0
	}
}
