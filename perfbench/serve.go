package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdpm/internal/client"
	"sdpm/internal/core"
	"sdpm/internal/faults"
	"sdpm/internal/insert"
	"sdpm/internal/obs"
	"sdpm/internal/obs/events"
	"sdpm/internal/serve"
	"sdpm/internal/sim"
	"sdpm/internal/trace"
	"sdpm/internal/workloads"
)

const (
	// warmNominalRPS is about what serve-warm's closed-loop clients
	// complete per second on a 2-core x86-64 box; a run sends
	// seconds×warmNominalRPS requests.
	warmNominalRPS = 80
	// sweepBlocksPerSecond sets serve-sweep's size: each pass sends
	// seconds×sweepBlocksPerSecond seed blocks. A block takes about
	// 0.6 s on that box, and the memo keeps about 50 MB per block, so
	// at --seconds 20 a pass measures about 6 s and its live heap
	// peaks near 500 MB. Sizing by blocks rather than by time keeps
	// the memo's growth, and so the heap, comparable from run to run.
	sweepBlocksPerSecond = 0.5
	// sweepPasses is how many times a serve-sweep run repeats its
	// timed phase, each on a fresh server with a cold memo. A pass's
	// latencies vary with the order of its requests; pooling passes
	// measures more requests without letting the memo, and so the
	// heap, grow further.
	sweepPasses = 4
	// warmSetups and sweepSetups are how many times a run sets the
	// server up before its first pass; setup_s is their median, and
	// the last one serves the first pass (later passes get one fresh
	// server each). serve-sweep's set-up takes milliseconds, most of
	// it allocating the event log's ring, and varies with how much
	// freed memory the heap holds, so it is repeated more often, and
	// only while the process is young.
	warmSetups  = 5
	sweepSetups = 301
	// recheckSample is how many answers a run recomputes in process.
	recheckSample = 8
	// sweepFaults is the fault preset every serve-sweep request asks for.
	sweepFaults = "light"
)

// pairs returns every (workload, scheme) request, in Table 2 and
// Figure 3 order.
func pairs() []client.SimRequest {
	var out []client.SimRequest
	for _, b := range workloads.Names() {
		for _, s := range core.AllSchemes() {
			out = append(out, client.SimRequest{Bench: b, Scheme: string(s)})
		}
	}
	return out
}

// warmRequests draws n requests as a sequence of random orderings of
// all pairs, so every run asks for the same mix and only the order
// depends on the seed.
func warmRequests(rng *rand.Rand, n int) []client.SimRequest {
	ps := pairs()
	out := make([]client.SimRequest, 0, n)
	for len(out) < n {
		for _, j := range rng.Perm(len(ps)) {
			if len(out) < n {
				out = append(out, ps[j])
			}
		}
	}
	return out
}

// sweepRequests returns blocks seed blocks: fault seeds 1..blocks in
// an order the seed draws, each with all pairs at faults=light in an
// order the seed draws. The fault seeds themselves are the same in
// every run: how much work a block does depends strongly on its fault
// schedule (one block can cost twice another), so seed-drawn fault
// seeds made serve-sweep's p50 differ by about a fifth from seed to
// seed. Every block still has its own fault seed, so the memo misses
// once per workload in each block and grows without bound, as before.
func sweepRequests(rng *rand.Rand, blocks int) []client.SimRequest {
	ps := pairs()
	var out []client.SimRequest
	for _, b := range rng.Perm(blocks) {
		for _, j := range rng.Perm(len(ps)) {
			r := ps[j]
			r.Faults, r.FaultSeed = sweepFaults, int64(b+1)
			out = append(out, r)
		}
	}
	return out
}

// server is an in-process dpmd on a loopback listener.
type server struct {
	srv  *serve.Server
	coll *obs.Collector
	hs   *http.Server
	url  string
	done chan struct{}
}

// startServer builds the service at dpmd's defaults (collector and
// event log attached, no journal, no chaos), with the collector passed
// in so the benchmark can read the serving layer's counters.
func startServer() (*server, error) {
	coll := obs.New()
	srv, err := serve.New(serve.Config{Obs: coll})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, coll: coll, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the listener and every connection, and waits for the
// serving goroutine to exit.
func (s *server) close() {
	_ = s.hs.Close() // closing a listener that failed is not worth reporting
	<-s.done
}

// newClients returns one client per CPU, at dpmctl's defaults
// (idempotency keys, digest check, no hedging), with distinct seeds.
func newClients(url string, seed int64) []*client.Client {
	cs := make([]*client.Client, runtime.NumCPU())
	for i := range cs {
		cs[i] = client.New(client.Config{BaseURL: url, Seed: seed*1000 + int64(i)})
	}
	return cs
}

// setupServer starts a server and its clients and, for serve-warm,
// warms every pair. It returns the time this took.
func setupServer(ctx context.Context, warm bool, seed int64) (*server, []*client.Client, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer()
	if err != nil {
		return nil, nil, 0, err
	}
	cs := newClients(s.url, seed)
	if err := cs[0].Health(ctx); err != nil {
		s.close()
		return nil, nil, 0, fmt.Errorf("server health: %w", err)
	}
	if warm {
		for _, r := range pairs() {
			if _, err := cs[0].Sim(ctx, r, 0); err != nil {
				s.close()
				return nil, nil, 0, fmt.Errorf("warming %s/%s: %w", r.Bench, r.Scheme, err)
			}
		}
	}
	return s, cs, time.Since(t0), nil
}

// load is the outcome of sending a request list through closed-loop
// clients.
type load struct {
	reqs []client.SimRequest
	lat  []float64 // ms, indexed like reqs
	resp []*client.SimResponse
	out  []outcome
	// unitWall and unitCPU are the wall and process CPU time of each
	// run of unitSize consecutive completions.
	unitWall, unitCPU []float64
}

// unitSize is the number of completions in one unit of a load: one
// request per (workload, scheme) pair.
const unitSize = 42

// mark is the time and process CPU time at a unit boundary.
type mark struct {
	at  time.Time
	cpu time.Duration
}

// runLoad sends reqs through the clients, each sending its next
// request only after the previous reply. tr, when non-nil, gets a
// span per request.
func runLoad(ctx context.Context, cs []*client.Client, reqs []client.SimRequest, tr *tracer) *load {
	l := &load{reqs: reqs, lat: make([]float64, len(reqs)), resp: make([]*client.SimResponse, len(reqs)), out: make([]outcome, len(reqs))}
	// marks[k] is written once, by whichever client completes request
	// k×unitSize, and read after wg.Wait.
	marks := make([]mark, len(reqs)/unitSize+1)
	marks[0] = mark{time.Now(), cpuTime()}
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				span := tr.begin("client.sim", fmt.Sprintf("req-%d", i), 0)
				start := time.Now()
				resp, err := c.Sim(ctx, reqs[i], 0)
				l.lat[i] = float64(time.Since(start)) / 1e6
				tr.end(span)
				l.resp[i], l.out[i] = resp, classify(err)
				if n := done.Add(1); n%unitSize == 0 {
					marks[n/unitSize] = mark{time.Now(), cpuTime()}
				}
			}
		}(c)
	}
	wg.Wait()
	for k := 1; k < len(marks); k++ {
		l.unitWall = append(l.unitWall, marks[k].at.Sub(marks[k-1].at).Seconds())
		l.unitCPU = append(l.unitCPU, (marks[k].cpu - marks[k-1].cpu).Seconds())
	}
	return l
}

// simConfig builds the configuration dpmd uses for a /v1/sim request.
func simConfig(b *workloads.Benchmark, r client.SimRequest) (core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.Model = b.Model()
	cfg.CacheUnits = b.CacheUnits
	if r.Faults != "" {
		fc, err := faults.ParseSpec(r.Faults)
		if err != nil {
			return cfg, err
		}
		cfg.Faults, cfg.FaultSeed = fc, r.FaultSeed
	}
	return cfg, nil
}

// recompute answers a request in process, without the server or its
// memo.
func recompute(r client.SimRequest) (*sim.Result, error) {
	b, err := workloads.ByName(r.Bench)
	if err != nil {
		return nil, err
	}
	cfg, err := simConfig(b, r)
	if err != nil {
		return nil, err
	}
	in, err := core.Prepare(b.Name, b.Program, cfg, nil)
	if err != nil {
		return nil, err
	}
	return in.Run(core.Scheme(r.Scheme))
}

// sameAnswer compares a served answer with a recomputed one bit for bit.
func sameAnswer(got *client.SimResponse, want *sim.Result) bool {
	eq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return eq(got.EnergyJ, want.EnergyJ) && eq(got.ExecMS, want.ExecMS) && eq(got.WaitMS, want.TotalWaitMS) &&
		got.Requests == want.Requests && got.PowerOps == want.PowerOps
}

// account counts a load's outcomes, then recomputes a seeded sample
// of its successful answers and counts each difference as a failure.
func account(rep *report, l *load, sample int, rng *rand.Rand) error {
	var okIdx []int
	for i, o := range l.out {
		rep.tally.add(o)
		if o == ok {
			okIdx = append(okIdx, i)
		}
	}
	rng.Shuffle(len(okIdx), func(a, b int) { okIdx[a], okIdx[b] = okIdx[b], okIdx[a] })
	for _, i := range okIdx[:min(sample, len(okIdx))] {
		want, err := recompute(l.reqs[i])
		if err != nil {
			return fmt.Errorf("recomputing %+v: %w", l.reqs[i], err)
		}
		if !sameAnswer(l.resp[i], want) {
			rep.tally.reclassify(mismatch)
			rep.note("answer to %s/%s (faults %q, seed %d) differs from the in-process result", l.reqs[i].Bench, l.reqs[i].Scheme, l.reqs[i].Faults, l.reqs[i].FaultSeed)
		}
	}
	return nil
}

// requestsFor draws a run's requests: seconds×warmNominalRPS warm
// requests, or seconds×sweepBlocksPerSecond sweep blocks.
func requestsFor(sweep bool, rng *rand.Rand, seconds int) []client.SimRequest {
	if sweep {
		return sweepRequests(rng, max(2, int(math.Round(float64(seconds)*sweepBlocksPerSecond))))
	}
	return warmRequests(rng, max(2*unitSize, seconds*warmNominalRPS))
}

// pass is one timed phase on a freshly set-up server.
type pass struct {
	*load
	setups              []float64 // seconds
	peakMB              float64
	hits, misses, waits int64 // memo lookups during the timed phase
	entries             float64
}

// servePass sets a server up setups times, keeping the last, sends
// reqs through it, and recomputes a sample of the answers.
func servePass(ctx context.Context, sweep bool, seed int64, reqs []client.SimRequest, setups, sample int, rng *rand.Rand, rep *report) (*pass, error) {
	p := &pass{}
	var (
		s  *server
		cs []*client.Client
	)
	for i := 0; i < setups; i++ {
		if s != nil {
			s.close()
		}
		runtime.GC() // every set-up starts from the same heap
		var (
			d   time.Duration
			err error
		)
		if s, cs, d, err = setupServer(ctx, !sweep, seed); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, d.Seconds())
	}
	defer s.close()
	runtime.GC()
	hits0, misses0, waits0 := s.coll.CacheStats()
	heap := startHeapSampler()
	p.load = runLoad(ctx, cs, reqs, nil)
	p.peakMB = heap.finish()
	hits, misses, waits := s.coll.CacheStats()
	p.hits, p.misses, p.waits = hits-hits0, misses-misses0, waits-waits0
	if err := account(rep, p.load, sample, rng); err != nil {
		return nil, err
	}
	var err error
	p.entries, err = cacheEntries(ctx, cs[0])
	return p, err
}

func runServe(sweep bool, seed int64, seconds int, tr *tracer) (*report, error) {
	ctx := context.Background()
	if tr != nil {
		return traceServe(ctx, sweep, seed, tr)
	}
	rng := rand.New(rand.NewSource(seed))
	passes, setups := 1, warmSetups
	if sweep {
		passes, setups = sweepPasses, sweepSetups
	}
	rep := newReport()
	var all []*pass
	var setupS, lat, unitWall, unitCPU, peaks []float64
	for i := 0; i < passes; i++ {
		n := 1
		if i == 0 {
			n = setups
		}
		p, err := servePass(ctx, sweep, seed, requestsFor(sweep, rng, seconds), n, recheckSample/passes, rng, rep)
		if err != nil {
			return nil, err
		}
		all = append(all, p)
		if i == 0 {
			setupS = p.setups
		}
		lat = append(lat, p.lat...)
		unitWall = append(unitWall, p.unitWall...)
		unitCPU = append(unitCPU, p.unitCPU...)
		peaks = append(peaks, p.peakMB)
	}
	pct, _ := tailPercentile(len(lat))
	rep.note("%d passes of %d requests from %d closed-loop clients, each on a fresh server; tail_ms is p%.1f; %d answers recomputed in process",
		passes, len(all[0].lat), runtime.NumCPU(), pct, passes*(recheckSample/passes))
	q1, _, q3 := quartiles(unitWall)
	rep.note("wall_s, cpu_s and rps are medians over %d units of %d consecutive replies; wall_s quartiles %.4f..%.4f", len(unitWall), unitSize, q1, q3)
	rep.note("latency ms: p10 %.2f, p25 %.2f, p50 %.2f, p75 %.2f, p90 %.2f", percentile(lat, 10), percentile(lat, 25), percentile(lat, 50), percentile(lat, 75), percentile(lat, 90))
	for i, p := range all {
		rep.note("pass %d memo: %d hits, %d misses, %d singleflight waits; %.0f entries at the end; %.1f MB peak live heap", i+1, p.hits, p.misses, p.waits, p.entries, p.peakMB)
	}
	rep.set("setup_s", median(setupS), "s")
	rep.set("wall_s", median(unitWall), "s")
	rep.set("cpu_s", median(unitCPU), "s")
	rep.set("p50_ms", median(lat), "ms")
	rep.set("tail_ms", percentile(lat, pct), "ms")
	rep.set("rps", unitSize/median(unitWall), "1/s")
	rep.set("peak_heap_mb", median(peaks), "MB")
	return rep, nil
}

// replayer redoes served requests' work in process, on a memo set up
// like the server's (collector and event log attached), calling each
// layer's public function in pipeline order so each gets a span. A
// layer's span is recorded only when the call does work: the first
// call for an instance, trace or mode, or a memo miss.
type replayer struct {
	cache    *core.Cache
	coll     *obs.Collector
	log      *events.Log
	benches  map[string]*workloads.Benchmark
	based    map[*core.Instance]bool
	instr    map[instrKey]bool
	compiled map[*trace.Trace]bool
	acc      layerAcc
	emitted  uint64
}

type instrKey struct {
	in   *core.Instance
	mode insert.Mode
}

func newReplayer() *replayer {
	r := &replayer{
		cache: core.NewCache(), coll: obs.New(), log: events.NewLog(0),
		benches: make(map[string]*workloads.Benchmark),
		based:   make(map[*core.Instance]bool), instr: make(map[instrKey]bool), compiled: make(map[*trace.Trace]bool),
	}
	r.cache.Obs, r.cache.Events = r.coll, r.log
	// One benchmark set for the replayer's lifetime: the memo keys on
	// program identity, as the server's does.
	for _, b := range workloads.All() {
		r.benches[b.Name] = b
	}
	return r
}

func (r *replayer) emittedNow() uint64 { return uint64(r.log.Len()) + r.log.Dropped() }

// compile compiles t on first use.
func (r *replayer) compile(in *core.Instance, t *trace.Trace, group string, parent int, tr *tracer) {
	if !r.compiled[t] {
		r.compiled[t] = true
		compile(in, t, group, parent, tr)
	}
}

// replay redoes one request's work and returns the time its layer
// calls took.
func (r *replayer) replay(req client.SimRequest, group string, tr *tracer) (time.Duration, error) {
	b := r.benches[req.Bench]
	cfg, err := simConfig(b, req)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	root := tr.begin("request", group, 0)
	defer tr.end(root)
	_, misses0, _ := r.coll.CacheStats()
	var in *core.Instance
	prep := tr.begin("core.cache_prepare", group, root)
	in, err = r.cache.Prepare(b.Name, b.Program, cfg, nil)
	tr.end(prep)
	if err != nil {
		return 0, err
	}
	if _, misses, _ := r.coll.CacheStats(); misses > misses0 {
		tr.rename(prep, "tracegen.sites")
		r.acc.sites += len(in.Sites)
	}
	scheme := core.Scheme(req.Scheme)
	switch scheme {
	case core.CMTPM, core.CMDRPM:
		mode, name := insert.ModeTPM, "insert.instrument_tpm"
		if scheme == core.CMDRPM {
			mode, name = insert.ModeDRPM, "insert.instrument_drpm"
		}
		k := instrKey{in, mode}
		var t *trace.Trace
		if r.instr[k] {
			t, _, err = in.Instrumented(mode)
		} else {
			r.instr[k] = true
			var plan *insert.Plan
			tr.timed(name, group, root, func() { t, plan, err = in.Instrumented(mode) })
			if err == nil {
				r.acc.powerCalls += plan.Ops
			}
		}
		if err != nil {
			return 0, err
		}
		r.compile(in, t, group, root, tr)
	default:
		if !r.based[in] {
			r.based[in] = true
			tr.timed("tracegen.base_trace", group, root, func() { in.BaseTrace() })
		}
		r.compile(in, in.BaseTrace(), group, root, tr)
	}
	e0 := r.emittedNow()
	if _, err := runScheme(in, scheme, group, root, tr, &r.acc); err != nil {
		return 0, err
	}
	r.emitted += r.emittedNow() - e0
	return time.Since(t0), nil
}

// attachment is what attaching the collector and the event log costs
// a simulation run.
type attachment struct {
	collectorMS, logMS    float64 // run time added per run, averaged over every pair
	drpmBareMS, drpmLogMS float64 // DRPM-family runs alone: bare, and with the event log
	bailouts              float64 // batching bail-outs the event log records per run
	droppedRuns           int     // runs whose events overflowed the log's ring
}

// attachCost runs each pair once with nothing attached, with the
// collector, with the event log, and with both.
func attachCost(faultSpec string, faultSeed int64) (attachment, error) {
	var a attachment
	var sum, drpm [4]time.Duration
	var bails, runs, drpmRuns int
	for _, b := range workloads.All() {
		cfg, err := simConfig(b, client.SimRequest{Faults: faultSpec, FaultSeed: faultSeed})
		if err != nil {
			return a, err
		}
		in, err := core.Prepare(b.Name, b.Program, cfg, nil)
		if err != nil {
			return a, err
		}
		for _, s := range core.AllSchemes() {
			if _, err := in.Run(s); err != nil { // builds the lazy traces untimed
				return a, err
			}
			isDRPM := simSpan(s) == "sim.run.drpm"
			for v := 0; v < 4; v++ {
				in.Obs, in.Events = nil, nil
				if v&1 != 0 {
					in.Obs = obs.New()
				}
				if v&2 != 0 {
					in.Events = events.NewLog(0)
				}
				t0 := time.Now()
				_, err := in.Run(s)
				d := time.Since(t0)
				if err != nil {
					return a, err
				}
				sum[v] += d
				if isDRPM {
					drpm[v] += d
				}
				if v == 2 {
					if in.Events.Dropped() > 0 {
						a.droppedRuns++
					}
					for _, e := range in.Events.Events() {
						if e.Kind == events.KindBailout {
							bails++
						}
					}
				}
			}
			runs++
			if isDRPM {
				drpmRuns++
			}
		}
	}
	perRun := func(d time.Duration, n int) float64 { return float64(d) / float64(n) / 1e6 }
	a.collectorMS, a.logMS = perRun(sum[1]-sum[0], runs), perRun(sum[2]-sum[0], runs)
	a.drpmBareMS, a.drpmLogMS = perRun(drpm[0], drpmRuns), perRun(drpm[2], drpmRuns)
	a.bailouts = float64(bails) / float64(runs)
	return a, nil
}

// cacheEntries reads the server's memo size from its /status endpoint.
func cacheEntries(ctx context.Context, c *client.Client) (float64, error) {
	st, err := c.Status(ctx)
	if err != nil {
		return 0, err
	}
	app, _ := st["app"].(map[string]any)
	n, ok := app["cache_len"].(float64)
	if !ok {
		return 0, fmt.Errorf("/status has no app.cache_len")
	}
	return n, nil
}

// clientTotals sums the clients' counters.
func clientTotals(cs []*client.Client) (attempts, retries, digest int64) {
	for _, c := range cs {
		m := c.Metrics()
		attempts += m.Attempts
		retries += m.Retries
		digest += m.DigestMismatches
	}
	return
}

// Traced-run sizes: requests per serve-warm pass, seed blocks per
// serve-sweep pass, and how many of the first traced pass's requests
// the replay redoes.
const (
	tracedWarmRequests = 320
	tracedSweepBlocks  = 2
	replayRequests     = 84
)

// traceServe is the traced serve run. After setup it sends four passes
// of equal size, alternating untraced and traced (the gap between their
// pooled medians is the tracing overhead), replays the first traced
// pass's first requests layer by layer, and measures what attaching
// the collector and the event log costs a run.
func traceServe(ctx context.Context, sweep bool, seed int64, tr *tracer) (*report, error) {
	rep := newTracedReport()
	rng := rand.New(rand.NewSource(seed))
	const passes = 4
	var reqs [passes][]client.SimRequest
	if sweep {
		all := sweepRequests(rng, passes*tracedSweepBlocks)
		for i := range reqs {
			reqs[i] = all[i*len(all)/passes : (i+1)*len(all)/passes]
		}
	} else {
		for i := range reqs {
			reqs[i] = warmRequests(rng, tracedWarmRequests)
		}
	}
	s, cs, _, err := setupServer(ctx, !sweep, seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	before := s.coll.Snapshot()
	hits0, misses0, waits0 := s.coll.CacheStats()
	_, shed0, _, _, _ := s.coll.ServeStats()
	att0, ret0, dig0 := clientTotals(cs)
	var untracedLat, tracedLat []float64
	var firstTraced *load
	for i := range reqs {
		var ptr *tracer
		if i%2 == 1 {
			ptr = tr
		}
		l := runLoad(ctx, cs, reqs[i], ptr)
		if err := account(rep, l, recheckSample/passes, rng); err != nil {
			return nil, err
		}
		if ptr == nil {
			untracedLat = append(untracedLat, l.lat...)
		} else {
			tracedLat = append(tracedLat, l.lat...)
			if firstTraced == nil {
				firstTraced = l
			}
		}
	}
	after := s.coll.Snapshot()
	hits, misses, waits := s.coll.CacheStats()
	_, shed, _, _, _ := s.coll.ServeStats()
	att, ret, dig := clientTotals(cs)
	entries, err := cacheEntries(ctx, cs[0])
	if err != nil {
		return nil, err
	}

	// Replay on a memo set up like the server's. serve-warm's memo is
	// warmed first, untraced, as the server's was in setup.
	rp := newReplayer()
	if !sweep {
		for _, r := range pairs() {
			if _, err := rp.replay(r, "warmup", nil); err != nil {
				return nil, err
			}
		}
		rp.acc, rp.emitted = layerAcc{}, 0
	}
	mark := len(tr.snapshot())
	var selfMS []float64
	n := min(replayRequests, len(firstTraced.reqs))
	for i := 0; i < n; i++ {
		d, err := rp.replay(firstTraced.reqs[i], fmt.Sprintf("req-%d", i), tr)
		if err != nil {
			return nil, err
		}
		selfMS = append(selfMS, firstTraced.lat[i]-float64(d)/1e6)
	}
	replaySpans := tr.snapshot()[mark:]
	layers := byName(replaySpans)
	setLayerMetrics(rep, layers, rp.acc)

	faultSpec, faultSeed := "", int64(0)
	if sweep {
		faultSpec, faultSeed = sweepFaults, firstTraced.reqs[0].FaultSeed
	}
	cost, err := attachCost(faultSpec, faultSeed)
	if err != nil {
		return nil, err
	}

	rep.set("obs.collector_ms", cost.collectorMS, "ms")
	rep.set("events.log_ms", cost.logMS, "ms")
	rep.set("events.emitted", float64(rp.emitted)/float64(n), "count")
	rep.set("sim.bailouts", cost.bailouts, "count")
	rep.set("core.cache_hits", float64(hits-hits0), "count")
	rep.set("core.cache_misses", float64(misses-misses0), "count")
	rep.set("core.cache_waits", float64(waits-waits0), "count")
	if total := (hits - hits0) + (misses - misses0) + (waits - waits0); total > 0 {
		rep.set("core.cache_hit_share", float64(hits-hits0)/float64(total), "ratio")
	}
	rep.set("core.cache_entries", entries, "count")
	rep.set("serve.queue_wait_p50_ms", histQuantile(before.ServeWaitMS, after.ServeWaitMS, 0.50), "ms")
	rep.set("serve.queue_wait_p99_ms", histQuantile(before.ServeWaitMS, after.ServeWaitMS, 0.99), "ms")
	rep.set("serve.shed", float64(shed-shed0), "count")
	rep.set("serve.self_ms", median(selfMS), "ms")
	rep.set("client.attempts", float64(att-att0), "count")
	rep.set("client.retries", float64(ret-ret0), "count")
	rep.set("client.digest_mismatches", float64(dig-dig0), "count")
	rep.set("tracing.overhead_share", median(tracedLat)/median(untracedLat)-1, "ratio")

	rep.note("after setup, %d passes of %d requests, alternately untraced and traced; the replay redoes the first traced pass's first %d", passes, len(reqs[0]), n)
	rep.note("tracing overhead: traced p50 %.3f ms vs untraced p50 %.3f ms", median(tracedLat), median(untracedLat))
	rep.note("serve.self_ms is the median of client latency minus the replayed layer time of the same request")
	rep.note("memo after setup: %d hits, %d misses, %d waits; %.0f entries", hits-hits0, misses-misses0, waits-waits0, entries)
	rep.note("DRPM-family runs: %.2f ms bare, %.2f ms with the event log (%.1fx)", cost.drpmBareMS, cost.drpmLogMS, cost.drpmLogMS/cost.drpmBareMS)
	if cost.droppedRuns > 0 {
		rep.note("sim.bailouts counts only retained events: %d runs overflowed the event ring", cost.droppedRuns)
	}
	rep.note("not measured on serve workloads: xform.apply_ms, oracle.mispredict_ms and experiments.* (no /v1/sim request reaches them); regen.* (regen only)")
	violations := 0
	if !sweep {
		if misses-misses0 > 0 {
			violations++
			rep.note("prediction violated: %d memo misses after setup on serve-warm", misses-misses0)
		}
		for _, sp := range replaySpans {
			if sp.Name == "tracegen.sites" || sp.Name == "tracegen.base_trace" || sp.Name == "insert.instrument_tpm" || sp.Name == "insert.instrument_drpm" {
				violations++
				rep.note("prediction violated: %s span in serve-warm's timed replay (%s)", sp.Name, sp.Group)
			}
		}
	}
	rep.set("checks.prediction_violations", float64(violations), "count")
	return rep, nil
}
