package cli

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"sdpm/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugServerEndpoints(t *testing.T) {
	coll := obs.New()
	coll.CountSimRun()
	coll.EnsureDisks(1, 3000, 3000, 1)
	tl := coll.Begin(1)
	tl.ObserveRequest(0, 1.5, 0, 10)
	tl.Commit()
	addr, shutdown, err := StartDebugServer("127.0.0.1:0", coll, func() any {
		return map[string]string{"phase": "testing"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	base := "http://" + addr

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(body, "sdpm_sim_runs_total 1") {
		t.Errorf("/metrics missing sim-run counter:\n%s", body)
	}

	code, body = get(t, base+"/status")
	if code != http.StatusOK {
		t.Fatalf("/status status = %d", code)
	}
	var status struct {
		App     map[string]string `json:"app"`
		Metrics *obs.Snapshot     `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/status is not valid JSON: %v\n%s", err, body)
	}
	if status.App["phase"] != "testing" {
		t.Errorf("/status app = %v, want phase=testing", status.App)
	}
	if status.Metrics == nil || status.Metrics.SimRuns != 1 || status.Metrics.Requests != 1 {
		t.Errorf("/status metrics snapshot = %+v", status.Metrics)
	}

	if code, _ := get(t, base+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", code)
	}
}

// TestDebugServerNilCollector: -http without -metrics-out must still
// serve, with empty exposition and a null metrics field.
func TestDebugServerNilCollector(t *testing.T) {
	addr, shutdown, err := StartDebugServer("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	base := "http://" + addr
	if code, _ := get(t, base+"/metrics"); code != http.StatusOK {
		t.Errorf("/metrics status = %d", code)
	}
	code, body := get(t, base+"/status")
	if code != http.StatusOK {
		t.Errorf("/status status = %d", code)
	}
	var status struct {
		Metrics *obs.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("/status is not valid JSON: %v", err)
	}
	if status.Metrics != nil {
		t.Errorf("nil collector rendered a snapshot: %+v", status.Metrics)
	}
}
