package events

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func TestZeroValueLog(t *testing.T) {
	var l Log
	l.Resolve(1, Outcome{RegretJ: 1}) // nothing held yet: inert
	if l.Len() != 0 || l.Dropped() != 0 || l.Events() != nil {
		t.Fatal("empty zero-value log reported contents")
	}
	if seq := l.Emit(Event{Kind: KindSpinDown}); seq != 1 {
		t.Fatalf("first Emit seq = %d, want 1", seq)
	}
	if cap(l.buf) != DefaultCapacity {
		t.Fatalf("zero-value ring cap = %d, want %d", cap(l.buf), DefaultCapacity)
	}
	l.Resolve(1, Outcome{RegretJ: 3})
	b := l.Begin()
	if seq := b.Emit(Event{Kind: KindRPMShift}); seq != 1 {
		t.Fatalf("first batch seq = %d, want 1", seq)
	}
	b.Commit()
	evs := l.Events()
	if len(evs) != 2 || evs[0].RegretJ != 3 || evs[1].Seq != 2 || evs[1].Kind != KindRPMShift {
		t.Fatalf("zero-value log events = %+v", evs)
	}

	// A zero-value log whose first writer is a batch.
	var l2 Log
	b = l2.Begin()
	b.Emit(Event{Kind: KindBailout})
	b.Commit()
	if l2.Len() != 1 || cap(l2.buf) != DefaultCapacity {
		t.Fatalf("batch-first zero-value log: len %d cap %d", l2.Len(), cap(l2.buf))
	}
}

// resolveKind classifies a Batch.Resolve target at the moment it is
// made.
type resolveKind int

const (
	resStaged  resolveKind = iota // still in the batch's open chunk
	resHeld                       // published and held by the ring
	resEvicted                    // published and already evicted
)

// TestBatchDifferential drives randomized emit/resolve scripts through
// a Batch per simulated run and, in lockstep, through per-event
// Log.Emit/Log.Resolve on a reference log, and requires the two logs
// to be identical: events (with their seqs and outcomes), Len and
// Dropped. Capacities straddle the chunk size so runs wrap the ring
// both within and across chunks.
func TestBatchDifferential(t *testing.T) {
	caps := []int{1, 100, ChunkSize - 1, ChunkSize, ChunkSize + 1, 3 * ChunkSize, DefaultCapacity}
	for _, capacity := range caps {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			var hits [3]int
			for seed := int64(1); seed <= 4; seed++ {
				h := batchScript(t, rand.New(rand.NewSource(seed)), capacity)
				for k := range hits {
					hits[k] += h[k]
				}
			}
			if hits[resStaged] == 0 || hits[resHeld] == 0 {
				t.Errorf("resolutions staged/held/evicted = %v: script missed a case", hits)
			}
			if capacity < DefaultCapacity && hits[resEvicted] == 0 {
				t.Errorf("resolutions staged/held/evicted = %v: no evicted target", hits)
			}
		})
	}
}

// batchScript runs one randomized script and returns how many
// resolutions hit each resolveKind.
func batchScript(t *testing.T, r *rand.Rand, capacity int) (hits [3]int) {
	t.Helper()
	got, want := NewLog(capacity), NewLog(capacity)
	runs := 6 + r.Intn(6)
	for run := 0; run < runs; run++ {
		// Engine events between runs go straight to the log.
		for i := r.Intn(3); i > 0; i-- {
			ev := Event{Kind: KindJournalHit, Detail: fmt.Sprint("cell", run, i)}
			if a, b := got.Emit(ev), want.Emit(ev); a != b {
				t.Fatalf("direct Emit seqs diverged: %d vs %d", a, b)
			}
		}
		b := got.Begin()
		var local, global []uint64 // per emitted event of this run
		n := r.Intn(6 * ChunkSize)
		for i := 0; i < n; i++ {
			ev := Event{TMS: float64(i), Kind: KindSpinDown, Disk: r.Intn(4), Policy: fmt.Sprint("run", run)}
			seq := b.Emit(ev)
			if seq != uint64(len(local)+1) {
				t.Fatalf("batch seq = %d, want %d", seq, len(local)+1)
			}
			local = append(local, seq)
			global = append(global, want.Emit(ev))
			for k := r.Intn(3); k > 0 && len(local) > 0; k-- {
				// Targets are recent (mostly staged), the newest
				// published event (held unless the chunk outgrew the
				// ring), or anywhere in the run.
				j := r.Intn(len(local))
				switch published := len(b.deltas) * ChunkSize; r.Intn(3) {
				case 0:
					j = len(local) - 1 - r.Intn(min(len(local), 40))
				case 1:
					if published > 0 {
						j = published - 1
					}
				}
				out := Outcome{MeasuredIdleMS: float64(i), ActualJ: r.Float64(), RegretJ: float64(j)}
				// Classify by the batched log's state: the three
				// paths through Batch.Resolve.
				if s := local[j]; s > uint64(len(b.deltas))*ChunkSize {
					hits[resStaged]++
				} else if s+b.deltas[(s-1)/ChunkSize] > got.seq-uint64(len(got.buf)) {
					hits[resHeld]++
				} else {
					hits[resEvicted]++
				}
				b.Resolve(local[j], out)
				want.Resolve(global[j], out)
			}
		}
		b.Commit()
		if !reflect.DeepEqual(got.Events(), want.Events()) {
			t.Fatalf("run %d: batched log differs from per-event log", run)
		}
		if got.Len() != want.Len() || got.Dropped() != want.Dropped() || got.seq != want.seq {
			t.Fatalf("run %d: len/dropped/seq = %d/%d/%d, want %d/%d/%d", run,
				got.Len(), got.Dropped(), got.seq, want.Len(), want.Dropped(), want.seq)
		}
	}
	return hits
}

// TestBatchConcurrent commits batches from several goroutines at once:
// every emitted event is either held or counted as dropped, and each
// batch's events keep their emit order in the log.
func TestBatchConcurrent(t *testing.T) {
	const workers, perWorker = 6, 3*ChunkSize + 77
	for _, capacity := range []int{ChunkSize, DefaultCapacity} {
		l := NewLog(capacity)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				b := l.Begin()
				for i := 0; i < perWorker; i++ {
					seq := b.Emit(Event{TMS: float64(i), Kind: KindRPMShift, Disk: g})
					b.Resolve(seq, Outcome{ActualJ: float64(i)})
				}
				b.Commit()
			}(g)
		}
		wg.Wait()
		if got := l.Len() + int(l.Dropped()); got != workers*perWorker {
			t.Fatalf("cap %d: held+dropped = %d, want %d", capacity, got, workers*perWorker)
		}
		last := make(map[int]float64)
		for _, e := range l.Events() {
			if prev, ok := last[e.Disk]; ok && e.TMS != prev+1 {
				t.Fatalf("cap %d: worker %d events out of order: %v then %v", capacity, e.Disk, prev, e.TMS)
			}
			if e.ActualJ != e.TMS {
				t.Fatalf("cap %d: event %+v lost its resolution", capacity, e)
			}
			last[e.Disk] = e.TMS
		}
		if capacity == DefaultCapacity && len(last) != workers {
			t.Fatalf("held events from %d workers, want %d", len(last), workers)
		}
	}
}

// TestBatchInterleavedResolve opens two batches on one log and
// alternates between them, so each batch's published chunks sit at
// different offsets in the global seq space. Every resolution, staged
// or published, must land on the event it names.
func TestBatchInterleavedResolve(t *testing.T) {
	const n = 5 * ChunkSize
	l := NewLog(DefaultCapacity)
	bs := []*Batch{l.Begin(), l.Begin()}
	for i := 0; i < n; i += 100 {
		for id, b := range bs {
			for k := i; k < i+100 && k < n; k++ {
				seq := b.Emit(Event{TMS: float64(k), Disk: id, Kind: KindRPMShift})
				// Resolve the event just emitted, then one from up to
				// two chunks back; each outcome names its target.
				b.Resolve(seq, Outcome{ActualJ: float64(seq)})
				back := seq - uint64(k%(2*ChunkSize))
				b.Resolve(back, Outcome{ActualJ: float64(back)})
			}
		}
	}
	for _, b := range bs {
		b.Commit()
	}
	if l.Len() != 2*n {
		t.Fatalf("Len = %d, want %d", l.Len(), 2*n)
	}
	for _, e := range l.Events() {
		if e.ActualJ != e.TMS+1 {
			t.Fatalf("batch %d event %v carries another event's outcome: %+v", e.Disk, e.TMS, e)
		}
	}
}

// TestBatchCycleDoesNotAllocate: once the log has a committed batch
// to reuse, a whole Begin/Emit/Resolve/Commit cycle spanning several
// chunks allocates nothing.
func TestBatchCycleDoesNotAllocate(t *testing.T) {
	l := NewLog(1024)
	ev := Event{TMS: 1, Kind: KindSpinDown, Disk: 0, Trigger: TrigThreshold}
	cycle := func() {
		b := l.Begin()
		for i := 0; i < 3*ChunkSize+5; i++ {
			b.Resolve(b.Emit(ev), Outcome{RegretJ: 1})
		}
		b.Resolve(1, Outcome{RegretJ: 2}) // published (and evicted)
		b.Commit()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("batch cycle allocated %.1f per run, want 0", allocs)
	}
}
