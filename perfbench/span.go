package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded only by the benchmark's own code, around the public
// functions it calls; nothing inside the program is instrumented.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Name   string        `json:"name"`
	Group  string        `json:"group"` // the request or cell the span belongs to
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, group string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Group: group, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// rename renames the span with the given id, for a call whose kind
// of work is known only after it returns.
func (t *tracer) rename(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Name = name
	t.mu.Unlock()
}

// timed runs f inside a span and returns the span's id.
func (t *tracer) timed(name, group string, parent int, f func()) int {
	id := t.begin(name, group, parent)
	f()
	t.end(id)
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write stores the spans as JSON Lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes returns each span's self time, indexed like spans: its
// duration minus the part of it that its children cover. Overlapping
// children (concurrent calls under one parent) are counted once, and
// a child's time outside its parent is ignored. Open spans (End < 0)
// count as zero.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[s.ID] {
			cs := spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		self[i] = s.End - s.Start - unionLen(iv)
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	slices.SortFunc(iv, func(a, b [2]time.Duration) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total time.Duration
	curLo, curHi := time.Duration(0), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls int
	self  time.Duration
}

// byName sums self time and call counts per span name.
func byName(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	out := make(map[string]layerStat)
	for i, s := range spans {
		st := out[s.Name]
		st.calls++
		st.self += self[i]
		out[s.Name] = st
	}
	return out
}

// meanMS is the mean self time per call in milliseconds (0 when the
// layer was never called).
func (s layerStat) meanMS() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.self) / float64(s.calls) / 1e6
}
