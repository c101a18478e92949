package sim

import (
	"errors"
	"sync"
	"testing"

	"sdpm/internal/disk"
	"sdpm/internal/faults"
	"sdpm/internal/obs"
	"sdpm/internal/trace"
)

// obsTrace is n requests round-robin over nd disks, 2 ms apart.
func obsTrace(nd, n int) *trace.Trace {
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = req(2, i%nd, 65536)
	}
	return mkTrace(nd, evs...)
}

// hookPolicy runs fn after every serviced request, and finish, if
// set, at the end of the run. It has no horizon, so its runs take the
// general path.
type hookPolicy struct {
	fn     func(m *Machine)
	finish func(m *Machine)
}

func (*hookPolicy) Name() string                                   { return "hook" }
func (*hookPolicy) BeforeService(*Machine, int, float64)           {}
func (p *hookPolicy) AfterService(m *Machine, _ int, _, _ float64) { p.fn(m) }
func (p *hookPolicy) Finish(m *Machine, _ float64) {
	if p.finish != nil {
		p.finish(m)
	}
}

// horizonHookPolicy describes a per-request horizon, so the batched
// executor serves its runs and calls the hook from its fast loop.
type horizonHookPolicy struct{ hookPolicy }

func (*horizonHookPolicy) Horizon() Horizon { return Horizon{AfterPerRequest: true} }

// TestRejectedRunNotCounted is the regression test for a run that
// fails its set-up checks: it must leave no trace in the collector.
func TestRejectedRunNotCounted(t *testing.T) {
	plan, err := faults.New(1, 2, faults.Config{})
	if err != nil {
		t.Fatal(err)
	}
	coll := obs.New()
	cfg := Config{Disk: disk.DefaultParams(), Obs: coll, Faults: plan}
	tr := obsTrace(4, 8)
	if _, err := Run(tr, cfg); err == nil {
		t.Fatal("Run accepted a fault plan covering 2 of 4 disks")
	}
	if _, err := RunOpenLoop(tr, cfg); err == nil {
		t.Fatal("RunOpenLoop accepted a fault plan covering 2 of 4 disks")
	}
	if s := coll.Snapshot(); s.SimRuns != 0 || len(s.Disks) != 0 {
		t.Fatalf("rejected runs reached the collector: %d sim runs, %d disks", s.SimRuns, len(s.Disks))
	}
}

// TestCollectorLiveDuringRun reads the shared collector from inside a
// run: it must never lag the run by a whole chunk, on the general
// path, the batched path or in open loop, and it must hold every
// request once the run returns.
func TestCollectorLiveDuringRun(t *testing.T) {
	const n = 3*obs.ChunkRequests + 100
	tr := obsTrace(2, n)
	for _, tc := range []struct {
		name     string
		horizon  bool
		openLoop bool
	}{{"general", false, false}, {"batched", true, false}, {"openloop", false, true}} {
		t.Run(tc.name, func(t *testing.T) {
			coll := obs.New()
			served, published := 0, false
			hp := hookPolicy{fn: func(*Machine) {
				served++
				lag := int64(served) - coll.Requests()
				if lag < 0 || lag >= obs.ChunkRequests {
					t.Fatalf("after %d requests the collector shows %d", served, coll.Requests())
				}
				published = published || coll.Requests() > 0
			}}
			var pol Policy = &hp
			if tc.horizon {
				pol = &horizonHookPolicy{hp}
			}
			cfg := Config{Disk: disk.DefaultParams(), Obs: coll, Policy: pol}
			var err error
			if tc.openLoop {
				_, err = RunOpenLoop(tr, cfg)
			} else {
				_, err = Run(tr, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if served != n || !published {
				t.Fatalf("hook saw %d requests (published mid-run: %v), want %d", served, published, n)
			}
			if got := coll.Requests(); got != n {
				t.Fatalf("collector holds %d requests after the run, want %d", got, n)
			}
		})
	}
}

// TestFailedRunPublishes requires a run that fails after it started
// to leave what it observed in the collector: one that fails its
// audit, and one whose policy panics.
func TestFailedRunPublishes(t *testing.T) {
	const n = obs.ChunkRequests + 200
	tr := obsTrace(2, n)

	t.Run("audit", func(t *testing.T) {
		coll := obs.New()
		pol := &hookPolicy{fn: func(*Machine) {}, finish: func(m *Machine) {
			m.disks[0].stats.IdleMS -= 5 // breaks time conservation
		}}
		_, err := Run(tr, Config{Disk: disk.DefaultParams(), Obs: coll, Policy: pol, Audit: true})
		var ae *AuditError
		if !errors.As(err, &ae) {
			t.Fatalf("Run error = %v, want an audit failure", err)
		}
		s := coll.Snapshot()
		if s.SimRuns != 1 || s.Requests != n || s.Disks[0].StateMS["idle"] == 0 {
			t.Fatalf("failed run published %d runs, %d requests, %g ms idle; want 1, %d, > 0",
				s.SimRuns, s.Requests, s.Disks[0].StateMS["idle"], n)
		}
	})

	t.Run("panic", func(t *testing.T) {
		coll := obs.New()
		served := 0
		pol := &hookPolicy{fn: func(*Machine) {
			if served++; served == n-1 {
				panic("policy bug")
			}
		}}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the policy's panic did not propagate")
				}
			}()
			_, _ = Run(tr, Config{Disk: disk.DefaultParams(), Obs: coll, Policy: pol})
		}()
		if got := coll.Requests(); got != n-1 {
			t.Fatalf("panicked run published %d requests, want %d", got, n-1)
		}
	})
}

// TestRunsReuseTallies requires runs to take their tallies from the
// collector's free list: sequential runs share one, and concurrent
// runs never use more tallies than runs were open at once.
func TestRunsReuseTallies(t *testing.T) {
	tr := obsTrace(2, 64)
	coll := obs.New()
	var mu sync.Mutex
	seen := make(map[*obs.Tally]bool)
	run := func(t *testing.T) {
		pol := &hookPolicy{fn: func(m *Machine) {
			mu.Lock()
			seen[m.obs] = true
			mu.Unlock()
		}}
		if _, err := Run(tr, Config{Disk: disk.DefaultParams(), Obs: coll, Policy: pol}); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 5; i++ {
		run(t)
	}
	if len(seen) != 1 {
		t.Fatalf("5 sequential runs used %d tallies, want 1", len(seen))
	}

	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				run(t)
			}
		}()
	}
	wg.Wait()
	if len(seen) > workers {
		t.Fatalf("%d concurrent runners used %d tallies", workers, len(seen))
	}
	if got, want := coll.Snapshot().SimRuns, int64(5+workers*20); got != want {
		t.Fatalf("sim runs = %d, want %d", got, want)
	}
}
