package obs

// The per-observation collector updates the simulator made before
// runs staged their metrics in a Tally: every observation goes
// straight to the shared atomics. They are the oracle of the tally
// differential tests and the baseline of BenchmarkObserveParallel.

// disk returns disk d's accumulators (nil when EnsureDisks has not
// covered d).
func (c *Collector) disk(d int) *diskMetrics {
	ds := c.disks.Load()
	if ds == nil || d < 0 || d >= len(*ds) {
		return nil
	}
	return (*ds)[d]
}

func (c *Collector) refObserveRequest(d int, svcMS, waitMS, idleMS float64) {
	if c == nil {
		return
	}
	c.requests.Add(1)
	if dm := c.disk(d); dm != nil {
		dm.requests.Add(1)
	}
	c.serviceMS.Observe(svcMS)
	c.waitMS.Observe(waitMS)
	c.idleMS.Observe(idleMS)
}

func (c *Collector) refObserveResidency(d int, st DiskState, rpm int, ms float64) {
	if c == nil {
		return
	}
	dm := c.disk(d)
	if dm == nil {
		return
	}
	dm.stateMS[st].Add(ms)
	if st == StateService || st == StateIdle {
		if i, ok := dm.levelIndex(rpm); ok {
			dm.rpmMS[i].Add(ms)
		} else {
			dm.otherMS.Add(ms)
		}
	}
}

func (c *Collector) refCountPowerOp(k PowerOpKind) {
	if c == nil {
		return
	}
	c.powerOps[k].Add(1)
}

func (c *Collector) refCountSpinupMiss(onDemand bool) {
	if c == nil {
		return
	}
	if onDemand {
		c.missOnDemand.Add(1)
	} else {
		c.missInflight.Add(1)
	}
}

func (c *Collector) refCountFault(k FaultKind) {
	if c == nil {
		return
	}
	c.faults[k].Add(1)
}
