package experiments

import (
	"io"
	"testing"

	"sdpm/internal/core"
)

// TestRegenStageCounts regenerates every experiment once, sequentially
// and unobserved, on one cache, and pins the work its stages did. The
// counts are deterministic, so a memo that stops sharing work it used
// to share (say, a stage keyed by program pointer again) fails here
// rather than showing up as noise in a timing comparison. A change that
// shares more lowers the counts; update the pins to the new values.
func TestRegenStageCounts(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	s := NewSuite()
	s.Workers = 1
	s.Cache = core.NewCache()
	var prev core.StageCounts
	for _, id := range IDs() {
		if err := Render(s, id, io.Discard, "text"); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got := s.Cache.Counts()
		t.Logf("%-24s walks %2d  trace stages %2d  instrumentations %2d  runs %2d", id,
			got.Walks-prev.Walks, got.TraceStages-prev.TraceStages,
			got.Instrumentations-prev.Instrumentations, got.Runs-prev.Runs)
		prev = got
	}
	want := core.StageCounts{Walks: 42, TraceStages: 46, Instrumentations: 59, Runs: 152}
	if prev != want {
		t.Errorf("one regeneration's stage work = %+v, want %+v", prev, want)
	}
}
