package obs

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sample is one parsed exposition line: name, sorted label pairs, value.
type sample struct {
	name   string
	labels string
	value  float64
}

// parsePrometheus is a minimal text-exposition parser used to
// round-trip WritePrometheus output: it checks line-level syntax and
// returns every sample, plus the declared TYPE of each family.
func parsePrometheus(t *testing.T, text string) (map[string]float64, map[string]string) {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s := parseSample(t, line)
		key := s.name
		if s.labels != "" {
			key += "{" + s.labels + "}"
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = s.value
	}
	return samples, types
}

func parseSample(t *testing.T, line string) sample {
	t.Helper()
	rest := line
	var labels []string
	name := rest
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.IndexByte(rest, '}')
		if j < i {
			t.Fatalf("bad label block: %q", line)
		}
		for _, lp := range strings.Split(rest[i+1:j], ",") {
			k, v, ok := strings.Cut(lp, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				t.Fatalf("bad label pair %q in %q", lp, line)
			}
			labels = append(labels, k+"="+v)
		}
		rest = rest[j+1:]
	} else {
		if sp := strings.IndexByte(rest, ' '); sp >= 0 {
			name = rest[:sp]
			rest = rest[sp:]
		}
	}
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		t.Fatalf("want exactly one value on %q", line)
	}
	var v float64
	var err error
	if fields[0] == "+Inf" {
		v = 0 // not used as a value in our output
	} else if v, err = strconv.ParseFloat(fields[0], 64); err != nil {
		t.Fatalf("bad value on %q: %v", line, err)
	}
	sort.Strings(labels)
	return sample{name: name, labels: strings.Join(labels, ","), value: v}
}

func TestWritePrometheusRoundTrip(t *testing.T) {
	c := New()
	c.EnsureDisks(2, 3000, 1200, 11)
	c.CountSimRun()
	tl := c.Begin(2)
	for i := 0; i < 5; i++ {
		tl.ObserveRequest(0, 4.2, 0, 100)
	}
	tl.ObserveRequest(1, 7.5, 12000, 60001)
	tl.ObserveResidency(0, StateIdle, 15000, 250.5)
	tl.ObserveResidency(0, StateService, 15000, 10)
	tl.ObserveResidency(1, StateStandby, 0, 5000)
	tl.ObserveResidency(1, StateIdle, 3001, 3) // off-grid -> rpm="other"
	tl.CountPowerOp(OpSpinDown)
	tl.CountPowerOp(OpSpinUp)
	tl.CountPowerOp(OpSetRPM)
	tl.CountPowerOp(OpSetRPM)
	tl.CountSpinupMiss(true)
	tl.CountSpinupMiss(false)
	tl.CountSpinupMiss(false)
	tl.Commit()
	c.CountCacheMiss()
	c.CountCacheHit()
	c.CountCacheHit()
	c.CountCacheWait()
	c.RunnerTask(2e9)
	c.RunnerQueue(3)
	c.RunnerWorker(2)

	var sb strings.Builder
	if err := WritePrometheus(&sb, c); err != nil {
		t.Fatal(err)
	}
	samples, types := parsePrometheus(t, sb.String())

	// Every sample's family must have a TYPE declaration.
	for key := range samples {
		name, _, _ := strings.Cut(key, "{")
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) && types[strings.TrimSuffix(name, suf)] == "histogram" {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if types[base] == "" {
			t.Errorf("sample %s has no TYPE declaration", key)
		}
	}

	want := map[string]float64{
		"sdpm_sim_runs_total":                                1,
		"sdpm_requests_total":                                6,
		`sdpm_power_ops_total{kind="spin_down"}`:             1,
		`sdpm_power_ops_total{kind="spin_up"}`:               1,
		`sdpm_power_ops_total{kind="set_rpm"}`:               2,
		`sdpm_spinup_mispredictions_total{kind="ondemand"}`:  1,
		`sdpm_spinup_mispredictions_total{kind="inflight"}`:  2,
		`sdpm_disk_requests_total{disk="0"}`:                 5,
		`sdpm_disk_requests_total{disk="1"}`:                 1,
		`sdpm_disk_state_ms_total{disk="0",state="idle"}`:    250.5,
		`sdpm_disk_state_ms_total{disk="0",state="service"}`: 10,
		`sdpm_disk_state_ms_total{disk="1",state="standby"}`: 5000,
		`sdpm_disk_rpm_ms_total{disk="0",rpm="15000"}`:       260.5,
		`sdpm_disk_rpm_ms_total{disk="1",rpm="other"}`:       3,
		"sdpm_cache_hits_total":                              2,
		"sdpm_cache_misses_total":                            1,
		"sdpm_cache_singleflight_waits_total":                1,
		"sdpm_runner_tasks_total":                            1,
		"sdpm_runner_busy_seconds_total":                     2,
		"sdpm_runner_workers_active":                         2,
		"sdpm_runner_queue_depth":                            3,
		"sdpm_request_service_ms_count":                      6,
		`sdpm_request_wait_ms_bucket{le="+Inf"}`:             6,
		`sdpm_idle_period_ms_bucket{le="100"}`:               5,
		`sdpm_idle_period_ms_bucket{le="300000"}`:            6,
	}
	for key, v := range want {
		got, ok := samples[key]
		if !ok {
			t.Errorf("missing sample %s", key)
			continue
		}
		if got != v {
			t.Errorf("%s = %g, want %g", key, got, v)
		}
	}

	// Histogram invariants: buckets cumulative and le="+Inf" == count.
	for _, h := range []string{"sdpm_request_service_ms", "sdpm_request_wait_ms", "sdpm_idle_period_ms"} {
		prev := -1.0
		for i := range bucketBoundsMS {
			key := fmt.Sprintf("%s_bucket{le=%q}", h, fmtFloat(bucketBoundsMS[i]))
			v, ok := samples[key]
			if !ok {
				t.Fatalf("missing bucket %s", key)
			}
			if v < prev {
				t.Errorf("%s buckets not cumulative at %s", h, key)
			}
			prev = v
		}
		if samples[h+`_bucket{le="+Inf"}`] != samples[h+"_count"] {
			t.Errorf("%s: +Inf bucket %g != count %g", h, samples[h+`_bucket{le="+Inf"}`], samples[h+"_count"])
		}
	}
}
