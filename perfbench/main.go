// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload in process, checks every output, and prints the
// metrics by name and unit; the last line of standard output is a
// JSON object with the keys correct, attempted, failed and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload regen --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer metrics of a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run prints: its metrics, correctness, and lines of
// context (sample counts, percentiles, checks) for the reader.
type report struct {
	tally   tally
	metrics map[string]metric
	notes   []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// checkNames reports an error unless the report holds exactly the
// listed metrics, with their units.
func (r *report) checkNames(want [][2]string) error {
	if len(r.metrics) != len(want) {
		return fmt.Errorf("run reported %d metrics, BENCHMARK.json lists %d", len(r.metrics), len(want))
	}
	for _, w := range want {
		if m, ok := r.metrics[w[0]]; !ok || m.Unit != w[1] {
			return fmt.Errorf("run did not report %s in %s", w[0], w[1])
		}
	}
	return nil
}

// print writes the human-readable lines, then the JSON result line.
// failed_share is printed for the reader but kept out of the JSON
// object, whose failed and attempted counts carry it; it is 0 when
// all is well, which no gated metric may be.
func (r *report) print(workload string, trace int) error {
	fmt.Printf("workload %s (trace %d)\n", workload, trace)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if trace == 0 {
		fmt.Printf("  %-40s %14.6g %s\n", "failed_share", r.tally.failedShare(), "ratio")
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.tally.failed() == 0, r.tally.attempted, r.tally.failed(), r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak live Go heap over an interval: the
// heap the last garbage collection found reachable, sampled every few
// milliseconds, plus a final collection when sampling stops so that
// what the interval left behind counts too. Live heap, unlike heap
// including garbage, does not depend on when collections happen to
// run, so it is comparable from run to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: heapNow()}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				h.peak = max(h.peak, heapNow())
				return
			case <-tick.C:
				h.peak = max(h.peak, heapNow())
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	return float64(max(h.peak, heapNow())) / (1 << 20)
}

func main() {
	workload := flag.String("workload", "", "workload to run: regen, serve-warm or serve-sweep")
	seed := flag.Int64("seed", 1, "workload seed (the serve workloads draw their requests from it)")
	seconds := flag.Int("seconds", 20, "nominal measuring time; sets how much work a run does")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	var (
		rep *report
		err error
	)
	switch *workload {
	case "regen":
		rep, err = runRegen(*seconds, tr)
	case "serve-warm", "serve-sweep":
		rep, err = runServe(*workload == "serve-sweep", *seed, *seconds, tr)
	default:
		err = fmt.Errorf("unknown --workload %q (regen, serve-warm or serve-sweep)", *workload)
	}
	if err == nil && tr != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *workload, *seed))
		if err = tr.write(path); err == nil {
			rep.note("spans: %d written to %s", len(tr.snapshot()), path)
		}
	}
	if err == nil {
		want := endToEndMetrics()
		if tr != nil {
			want = layerMetrics()
		}
		err = rep.checkNames(want)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(*workload, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
