package events

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilLogIsInert(t *testing.T) {
	var l *Log
	if seq := l.Emit(Event{Kind: KindSpinDown}); seq != 0 {
		t.Fatalf("nil Emit returned seq %d, want 0", seq)
	}
	l.Resolve(1, Outcome{RegretJ: 5})
	if l.Len() != 0 || l.Dropped() != 0 || l.Events() != nil {
		t.Fatal("nil log reported contents")
	}
	b := l.Begin()
	if b != nil {
		t.Fatal("nil log returned a non-nil batch")
	}
	if seq := b.Emit(Event{Kind: KindSpinDown}); seq != 0 {
		t.Fatalf("nil batch Emit returned seq %d, want 0", seq)
	}
	b.Resolve(1, Outcome{RegretJ: 1})
	b.Commit()
}

func TestEmitResolveRoundTrip(t *testing.T) {
	l := NewLog(16)
	s1 := l.Emit(Event{TMS: 10, Kind: KindSpinDown, Disk: 0, Trigger: TrigThreshold, BreakEvenMS: 1200})
	s2 := l.Emit(Event{TMS: 20, Kind: KindRPMShift, Disk: 1, Trigger: TrigHint, TargetRPM: 6000, PredictedIdleMS: 900})
	if s1 != 1 || s2 != 2 {
		t.Fatalf("seqs = %d, %d; want 1, 2", s1, s2)
	}
	l.Resolve(s1, Outcome{MeasuredIdleMS: 5000, WindowMS: 5100, ActualJ: 9, OracleJ: 7, RegretJ: 2})
	evs := l.Events()
	if len(evs) != 2 {
		t.Fatalf("len = %d, want 2", len(evs))
	}
	if evs[0].RegretJ != 2 || evs[0].MeasuredIdleMS != 5000 || evs[0].WindowMS != 5100 {
		t.Fatalf("resolved event = %+v", evs[0])
	}
	if evs[1].RegretJ != 0 || evs[1].TargetRPM != 6000 {
		t.Fatalf("unresolved event = %+v", evs[1])
	}
	// Resolving seq 0 (the nil-log sentinel) and unknown seqs is inert.
	l.Resolve(0, Outcome{RegretJ: 99})
	l.Resolve(77, Outcome{RegretJ: 99})
	for _, e := range l.Events() {
		if e.RegretJ == 99 {
			t.Fatal("bogus Resolve mutated the log")
		}
	}
}

func TestRingEviction(t *testing.T) {
	l := NewLog(4)
	for i := 0; i < 10; i++ {
		l.Emit(Event{TMS: float64(i), Kind: KindBailout})
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	if l.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", l.Dropped())
	}
	evs := l.Events()
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
	// An evicted seq must not resolve into the slot that replaced it.
	l.Resolve(3, Outcome{RegretJ: 99})
	for _, e := range l.Events() {
		if e.RegretJ == 99 {
			t.Fatal("evicted Resolve mutated a survivor")
		}
	}
	// A surviving seq still resolves.
	l.Resolve(9, Outcome{RegretJ: 1})
	found := false
	for _, e := range l.Events() {
		if e.Seq == 9 && e.RegretJ == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("surviving seq did not resolve")
	}
}

func TestEmitDoesNotAllocate(t *testing.T) {
	l := NewLog(1024)
	ev := Event{TMS: 1, Kind: KindSpinDown, Disk: 0, Trigger: TrigThreshold}
	allocs := testing.AllocsPerRun(500, func() {
		seq := l.Emit(ev)
		l.Resolve(seq, Outcome{RegretJ: 1})
	})
	if allocs != 0 {
		t.Fatalf("Emit+Resolve allocated %.1f per op, want 0", allocs)
	}
}

func TestConcurrentEmit(t *testing.T) {
	l := NewLog(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seq := l.Emit(Event{Kind: KindFault, Disk: i % 4})
				l.Resolve(seq, Outcome{ActualJ: 1})
			}
		}()
	}
	wg.Wait()
	if got := l.Len() + int(l.Dropped()); got != 8*200 {
		t.Fatalf("held+dropped = %d, want %d", got, 8*200)
	}
	evs := l.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("Events not in seq order: %d then %d", evs[i-1].Seq, evs[i].Seq)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Seq: 1, TMS: 12.5, Kind: KindSpinDown, Program: "lu", Policy: "tpm", Disk: 2,
			Trigger: TrigThreshold, BreakEvenMS: 1800, MeasuredIdleMS: 6000, WindowMS: 6010,
			ActualJ: 11.25, OracleJ: 9.5, RegretJ: 1.75},
		{Seq: 2, TMS: -1, Kind: KindJournalHit, Detail: "suite.cell"},
		{Seq: 3, TMS: 40, Kind: KindRPMShift, Disk: 0, Trigger: TrigHint, TargetRPM: 5400, PredictedIdleMS: 750},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

func TestDecodeJSONLErrors(t *testing.T) {
	if _, err := DecodeJSONL(strings.NewReader("{\"seq\":1}\nnot json\n")); err == nil {
		t.Fatal("malformed line decoded without error")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks line number: %v", err)
	}
	out, err := DecodeJSONL(strings.NewReader("\n\n"))
	if err != nil || out != nil {
		t.Fatalf("blank input: %v, %v", out, err)
	}
}

func TestAggregateRegret(t *testing.T) {
	evs := []Event{
		{Kind: KindSpinDown, Policy: "tpm", Disk: 0, ActualJ: 10, OracleJ: 6, RegretJ: 4},
		{Kind: KindSpinUp, Policy: "tpm", Disk: 0}, // unattributed
		{Kind: KindSpinDown, Policy: "tpm", Disk: 1, ActualJ: 3, OracleJ: 3, RegretJ: 0},
		{Kind: KindRPMShift, Policy: "drpm", Disk: 0, ActualJ: 9, OracleJ: 2, RegretJ: 7},
		{Kind: KindSpinupMiss, Policy: "tpm", Disk: 0, Detail: "ondemand"}, // not a decision
	}
	groups := AggregateRegret(evs)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	if groups[0].Policy != "drpm" || groups[0].RegretJ != 7 {
		t.Fatalf("top group = %+v", groups[0])
	}
	if groups[1].Policy != "tpm" || groups[1].Disk != 0 || groups[1].Decisions != 2 || groups[1].Attributed != 1 {
		t.Fatalf("tpm/0 group = %+v", groups[1])
	}
}

func TestTopRegretAndCounts(t *testing.T) {
	var evs []Event
	for i := 0; i < 5; i++ {
		evs = append(evs, Event{Seq: uint64(i + 1), Kind: KindSpinDown, RegretJ: float64(i)})
	}
	evs = append(evs,
		Event{Kind: KindSpinupMiss, Detail: "ondemand"},
		Event{Kind: KindSpinupMiss, Detail: "ondemand"},
		Event{Kind: KindSpinupMiss, Detail: "inflight"},
		Event{Kind: KindBailout, Detail: "policy_decision"},
		Event{Kind: KindBailout, Detail: "disk_transition"},
		Event{Kind: KindBailout, Detail: "policy_decision"},
	)
	top := TopRegret(evs, 2)
	if len(top) != 2 || top[0].RegretJ != 4 || top[1].RegretJ != 3 {
		t.Fatalf("top = %+v", top)
	}
	od, inf := MissCounts(evs)
	if od != 2 || inf != 1 {
		t.Fatalf("MissCounts = %d, %d", od, inf)
	}
	bail := CountByDetail(evs, KindBailout)
	if bail["policy_decision"] != 2 || bail["disk_transition"] != 1 {
		t.Fatalf("bailouts = %v", bail)
	}
	byKind := CountByKind(evs)
	if byKind[KindSpinDown] != 5 || byKind[KindSpinupMiss] != 3 {
		t.Fatalf("byKind = %v", byKind)
	}
}

func TestFilter(t *testing.T) {
	evs := []Event{
		{Kind: KindSpinDown, Policy: "tpm", Disk: 0},
		{Kind: KindSpinDown, Policy: "itpm", Disk: 1},
		{Kind: KindSpinUp, Policy: "tpm", Disk: 1},
	}
	if got := Filter(evs, KindSpinDown, "", -1); len(got) != 2 {
		t.Fatalf("kind filter = %d", len(got))
	}
	if got := Filter(evs, "", "tpm", 1); len(got) != 1 || got[0].Kind != KindSpinUp {
		t.Fatalf("policy+disk filter = %+v", got)
	}
	if got := Filter(evs, "", "", -1); len(got) != 3 {
		t.Fatalf("no-op filter = %d", len(got))
	}
}

func TestDefaultCapacity(t *testing.T) {
	l := NewLog(0)
	if cap(l.buf) != DefaultCapacity {
		t.Fatalf("cap = %d, want %d", cap(l.buf), DefaultCapacity)
	}
}

func TestEventsOrderAcrossWrap(t *testing.T) {
	l := NewLog(3)
	for i := 0; i < 7; i++ {
		l.Emit(Event{Detail: fmt.Sprintf("e%d", i)})
	}
	evs := l.Events()
	want := []string{"e4", "e5", "e6"}
	for i, e := range evs {
		if e.Detail != want[i] {
			t.Fatalf("evs[%d] = %s, want %s", i, e.Detail, want[i])
		}
	}
}
