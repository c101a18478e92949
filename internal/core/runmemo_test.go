package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sdpm/internal/faults"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/sim"
	"sdpm/internal/workloads"
)

// runOnlyVariants returns cfg's default plus one variant per run-only
// perturbation the memo keys on: light faults under two seeds, a
// larger power-call overhead, the distance-aware seek model, and the
// conservation audit.
func runOnlyVariants(t *testing.T, cfg Config) map[string]Config {
	t.Helper()
	light, err := faults.ParseSpec("light")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Config{"default": cfg}
	for _, seed := range []int64{1, 2} {
		c := cfg
		c.Faults, c.FaultSeed = light, seed
		out[fmt.Sprintf("light-seed%d", seed)] = c
	}
	tm := cfg
	tm.PowerCallOverheadMS *= 4
	out["tm"] = tm
	seek := cfg
	seek.DistanceAwareSeek = true
	out["distseek"] = seek
	audit := cfg
	audit.Audit = true
	out["audit"] = audit
	return out
}

// checkIdles requires a Base result to carry one idle-period list per
// disk and any other scheme's result to carry none.
func checkIdles(t *testing.T, where string, s Scheme, res *sim.Result, numDisks int) {
	t.Helper()
	if s == Base && len(res.Idles) != numDisks {
		t.Errorf("%s: Base result carries %d idle-period lists, want %d", where, len(res.Idles), numDisks)
	}
	if s != Base && res.Idles != nil {
		t.Errorf("%s: %s result carries idle periods", where, s)
	}
}

// TestRunMemoUnobservable runs every workload under every scheme and
// every run-only variant through one Cache, twice on one instance and
// once on a second instance viewing the same stages under another
// name. The first run simulates; the later two must be memo hits
// (sharing its stats), carry their own Program and Scheme, and
// deep-equal a fresh core.Prepare + Run.
func TestRunMemoUnobservable(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Model = b.Model()
			cfg.CacheUnits = b.CacheUnits
			c := NewCache()
			for vname, vcfg := range runOnlyVariants(t, cfg) {
				in, err := c.Prepare(b.Name, b.Program, vcfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				other, err := c.Prepare(b.Name+"/other", b.Program, vcfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := Prepare(b.Name, b.Program, vcfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range AllSchemes() {
					where := name + "/" + vname + "/" + string(s)
					first, err := in.Run(s)
					if err != nil {
						t.Fatal(err)
					}
					again, err := in.Run(s)
					if err != nil {
						t.Fatal(err)
					}
					viewed, err := other.Run(s)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Run(s)
					if err != nil {
						t.Fatal(err)
					}
					if again == first || &again.Disks[0] != &first.Disks[0] || &viewed.Disks[0] != &first.Disks[0] {
						t.Errorf("%s: repeated runs are not memo hits with their own headers", where)
					}
					if viewed.Program != other.Name || viewed.Scheme != string(s) {
						t.Errorf("%s: second instance's result labelled %s/%s", where, viewed.Program, viewed.Scheme)
					}
					for _, got := range []*sim.Result{first, again} {
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: memoized result differs from a fresh preparation", where)
						}
					}
					relabelled := *viewed
					relabelled.Program = want.Program
					if !reflect.DeepEqual(&relabelled, want) {
						t.Errorf("%s: second instance's result differs from a fresh preparation", where)
					}
					checkIdles(t, where, s, first, vcfg.NumDisks)
				}
			}
		})
	}
}

// TestObservedRunsNotMemoized checks that an instance with a collector
// or an event log attached simulates on every Run: each call counts a
// simulation run and logs its own events (a Base run makes no power
// decisions, so it logs none).
func TestObservedRunsNotMemoized(t *testing.T) {
	b, err := workloads.ByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Model = b.Model()
	cfg.CacheUnits = b.CacheUnits
	const calls = 3
	for _, s := range []Scheme{Base, IDRPM, CMDRPM} {
		c := NewCache()
		c.Obs = obs.New()
		in, err := c.Prepare(b.Name, b.Program, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		logged := NewCache()
		logged.Events = events.NewLog(1 << 16)
		lin, err := logged.Prepare(b.Name, b.Program, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var perCall []int
		for i := 0; i < calls; i++ {
			res, err := in.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			checkIdles(t, string(s), s, res, cfg.NumDisks)
			before := logged.Events.Len()
			if _, err := lin.Run(s); err != nil {
				t.Fatal(err)
			}
			perCall = append(perCall, logged.Events.Len()-before)
		}
		if got := c.Obs.Snapshot().SimRuns; got != calls {
			t.Errorf("%s: collector counted %d simulation runs for %d calls", s, got, calls)
		}
		if logged.Events.Dropped() > 0 {
			t.Fatalf("%s: the event log dropped events; enlarge it", s)
		}
		for i, n := range perCall {
			if n != perCall[0] || (s != Base && n == 0) {
				t.Errorf("%s: call %d logged %d events, first call %d", s, i, n, perCall[0])
			}
		}
	}
}

// TestConcurrentRunsShareOneResult races Runs of one run key from
// several instances viewing one stage (they differ only in name): a
// single simulation must serve them all, each under its own header,
// with the result a sequential fresh run gives.
func TestConcurrentRunsShareOneResult(t *testing.T) {
	b, err := workloads.ByName("mesa")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Model = b.Model()
	cfg.CacheUnits = b.CacheUnits
	schemes := []Scheme{Base, DRPM, CMDRPM}
	fresh, err := Prepare(b.Name, b.Program, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[Scheme]*sim.Result)
	for _, s := range schemes {
		if want[s], err = fresh.Run(s); err != nil {
			t.Fatal(err)
		}
	}
	const views, callsPerView = 4, 3
	c := NewCache()
	var ins []*Instance
	for v := 0; v < views; v++ {
		in, err := c.Prepare(fmt.Sprintf("%s#%d", b.Name, v), b.Program, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	type got struct {
		in  *Instance
		s   Scheme
		res *sim.Result
	}
	var (
		mu  sync.Mutex
		out []got
		wg  sync.WaitGroup
	)
	for _, in := range ins {
		for _, s := range schemes {
			for i := 0; i < callsPerView; i++ {
				wg.Add(1)
				go func(in *Instance, s Scheme) {
					defer wg.Done()
					res, err := in.Run(s)
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					out = append(out, got{in, s, res})
					mu.Unlock()
				}(in, s)
			}
		}
	}
	wg.Wait()
	shared := make(map[Scheme]*sim.DiskStats)
	for _, g := range out {
		if g.res.Program != g.in.Name || g.res.Scheme != string(g.s) {
			t.Errorf("%s/%s: result labelled %s/%s", g.in.Name, g.s, g.res.Program, g.res.Scheme)
		}
		if first, ok := shared[g.s]; !ok {
			shared[g.s] = &g.res.Disks[0]
		} else if first != &g.res.Disks[0] {
			t.Errorf("%s/%s: more than one simulation served the run", g.in.Name, g.s)
		}
		relabelled := *g.res
		relabelled.Program = b.Name
		if !reflect.DeepEqual(&relabelled, want[g.s]) {
			t.Errorf("%s/%s: concurrent memoized result differs from a sequential fresh run", g.in.Name, g.s)
		}
	}
	if len(out) != views*len(schemes)*callsPerView {
		t.Errorf("%d results, want %d", len(out), views*len(schemes)*callsPerView)
	}
}
