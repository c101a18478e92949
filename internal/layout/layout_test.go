package layout

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestNewSubsystemRejectsBadSize: a non-positive disk count yields a
// typed error (it used to panic in the constructor).
func TestNewSubsystemRejectsBadSize(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		s, err := NewSubsystem(n)
		var sse *SubsystemSizeError
		if !errors.As(err, &sse) || s != nil {
			t.Errorf("NewSubsystem(%d) = (%v, %v), want *SubsystemSizeError", n, s, err)
			continue
		}
		if sse.NumDisks != n {
			t.Errorf("error carries %d, want %d", sse.NumDisks, n)
		}
	}
	if s, err := NewSubsystem(4); err != nil || s == nil {
		t.Fatalf("NewSubsystem(4) = (%v, %v)", s, err)
	}
	// MustSubsystem panics on the same input.
	defer func() {
		if recover() == nil {
			t.Error("MustSubsystem(0) did not panic")
		}
	}()
	MustSubsystem(0)
}

func TestStripingValidate(t *testing.T) {
	good := Striping{StartDisk: 0, Factor: 8, UnitBytes: 64 * 1024}
	if err := good.Validate(8); err != nil {
		t.Fatalf("valid striping rejected: %v", err)
	}
	cases := []Striping{
		{StartDisk: 0, Factor: 0, UnitBytes: 65536},
		{StartDisk: 0, Factor: 9, UnitBytes: 65536},
		{StartDisk: -1, Factor: 4, UnitBytes: 65536},
		{StartDisk: 8, Factor: 4, UnitBytes: 65536},
		{StartDisk: 0, Factor: 4, UnitBytes: 0},
		{StartDisk: 0, Factor: 4, UnitBytes: 1000}, // not block aligned
	}
	for _, c := range cases {
		if err := c.Validate(8); err == nil {
			t.Errorf("striping %+v accepted", c)
		}
	}
}

func TestStripingDisks(t *testing.T) {
	st := Striping{StartDisk: 6, Factor: 4, UnitBytes: 65536}
	got := st.Disks(8)
	want := []int{6, 7, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Disks() = %v, want %v", got, want)
		}
	}
}

func TestDiskOfUnitRoundRobin(t *testing.T) {
	st := Striping{StartDisk: 2, Factor: 3, UnitBytes: 1024}
	want := []int{2, 3, 4, 2, 3, 4, 2}
	for u, w := range want {
		if got := st.DiskOfUnit(int64(u), 8); got != w {
			t.Errorf("DiskOfUnit(%d) = %d, want %d", u, got, w)
		}
	}
}

func TestPlaceAndMapSingleDisk(t *testing.T) {
	s := MustSubsystem(4)
	st := Striping{StartDisk: 1, Factor: 1, UnitBytes: 1024}
	if err := s.Place("f", 4096, st); err != nil {
		t.Fatal(err)
	}
	exts, err := s.Map("f", 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 1 {
		t.Fatalf("expected one merged extent, got %v", exts)
	}
	if exts[0].Disk != 1 || exts[0].Block != 0 || exts[0].Bytes != 4096 {
		t.Errorf("extent = %+v", exts[0])
	}
}

func TestMapStripedRange(t *testing.T) {
	s := MustSubsystem(4)
	st := Striping{StartDisk: 0, Factor: 4, UnitBytes: 1024}
	if err := s.Place("f", 8192, st); err != nil {
		t.Fatal(err)
	}
	// Range covering units 0..3 -> one extent per disk.
	exts, err := s.Map("f", 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 4 {
		t.Fatalf("expected 4 extents, got %v", exts)
	}
	for i, e := range exts {
		if e.Disk != i || e.Bytes != 1024 || e.Block != 0 {
			t.Errorf("extent %d = %+v", i, e)
		}
	}
	// Second stripe row lands at block 1024/512=2 on each disk.
	exts, _ = s.Map("f", 4096, 4096)
	for i, e := range exts {
		if e.Disk != i || e.Block != 2 {
			t.Errorf("row2 extent %d = %+v", i, e)
		}
	}
}

func TestMapPartialUnitAndMerge(t *testing.T) {
	s := MustSubsystem(2)
	st := Striping{StartDisk: 0, Factor: 1, UnitBytes: 1024}
	if err := s.Place("f", 10240, st); err != nil {
		t.Fatal(err)
	}
	// Unaligned range inside one file on one disk merges into one extent.
	exts, err := s.Map("f", 100, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(exts) != 1 || exts[0].Bytes != 3000 {
		t.Fatalf("exts = %v", exts)
	}
}

func TestTwoFilesDoNotOverlap(t *testing.T) {
	s := MustSubsystem(4)
	st := Striping{StartDisk: 0, Factor: 4, UnitBytes: 1024}
	if err := s.Place("a", 8192, st); err != nil {
		t.Fatal(err)
	}
	if err := s.Place("b", 8192, st); err != nil {
		t.Fatal(err)
	}
	ea, _ := s.Map("a", 0, 8192)
	eb, _ := s.Map("b", 0, 8192)
	type span struct {
		disk       int
		start, end int64
	}
	var spans []span
	for _, e := range append(ea, eb...) {
		spans = append(spans, span{e.Disk, e.Block * BlockSize, e.Block*BlockSize + e.Bytes})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.disk == b.disk && a.start < b.end && b.start < a.end {
				t.Fatalf("overlap: %+v vs %+v", a, b)
			}
		}
	}
}

func TestPlaceErrors(t *testing.T) {
	s := MustSubsystem(2)
	st := Striping{StartDisk: 0, Factor: 2, UnitBytes: 1024}
	if err := s.Place("f", 2048, st); err != nil {
		t.Fatal(err)
	}
	if err := s.Place("f", 2048, st); err == nil {
		t.Error("duplicate placement accepted")
	}
	if err := s.Place("g", 0, st); err == nil {
		t.Error("zero size accepted")
	}
	if err := s.Place("h", 10, Striping{StartDisk: 0, Factor: 3, UnitBytes: 1024}); err == nil {
		t.Error("factor > numDisks accepted")
	}
}

func TestMapErrors(t *testing.T) {
	s := MustSubsystem(2)
	st := Striping{StartDisk: 0, Factor: 2, UnitBytes: 1024}
	if err := s.Place("f", 2048, st); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map("nope", 0, 1); err == nil {
		t.Error("unknown file accepted")
	}
	if _, err := s.Map("f", -1, 10); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := s.Map("f", 0, 4096); err == nil {
		t.Error("out-of-range length accepted")
	}
	if _, err := s.DiskOf("f", 5000); err == nil {
		t.Error("DiskOf out of range accepted")
	}
	if _, err := s.DiskOf("nope", 0); err == nil {
		t.Error("DiskOf unknown file accepted")
	}
	if _, err := s.UnitOf("nope", 0); err == nil {
		t.Error("UnitOf unknown file accepted")
	}
	if _, err := s.MapUnit(7, 0); err == nil {
		t.Error("MapUnit unknown file accepted")
	}
	if _, err := s.MapUnit(-1, 0); err == nil {
		t.Error("MapUnit negative file id accepted")
	}
	f, _ := s.FileID("f")
	if _, err := s.MapUnit(f, 99); err == nil {
		t.Error("MapUnit out-of-range accepted")
	}
	if _, err := s.MapUnit(f, -1); err == nil {
		t.Error("MapUnit negative unit accepted")
	}
	if _, err := s.UnitKey(f, 99); err == nil {
		t.Error("UnitKey out-of-range accepted")
	}
	if _, err := s.UnitKey(7, 0); err == nil {
		t.Error("UnitKey unknown file accepted")
	}
}

func TestMapUnitAgreesWithMap(t *testing.T) {
	s := MustSubsystem(8)
	st := Striping{StartDisk: 3, Factor: 5, UnitBytes: 2048}
	size := int64(2048*37 + 500) // ragged tail
	if err := s.Place("f", size, st); err != nil {
		t.Fatal(err)
	}
	units := (size + st.UnitBytes - 1) / st.UnitBytes
	f, ok := s.FileID("f")
	if !ok {
		t.Fatal("FileID(f) not found")
	}
	for u := int64(0); u < units; u++ {
		me, err := s.MapUnit(f, u)
		if err != nil {
			t.Fatal(err)
		}
		off := u * st.UnitBytes
		n := st.UnitBytes
		if off+n > size {
			n = size - off
		}
		exts, err := s.Map("f", off, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(exts) != 1 || exts[0] != me {
			t.Fatalf("unit %d: MapUnit=%+v Map=%v", u, me, exts)
		}
	}
}

func TestDiskOfMatchesMap(t *testing.T) {
	f := func(startDisk, factor uint8, offRaw uint16) bool {
		nd := 8
		sd := int(startDisk) % nd
		fc := int(factor)%nd + 1
		s := MustSubsystem(nd)
		st := Striping{StartDisk: sd, Factor: fc, UnitBytes: 1024}
		size := int64(64 * 1024)
		if err := s.Place("f", size, st); err != nil {
			return false
		}
		off := int64(offRaw) % size
		d, err := s.DiskOf("f", off)
		if err != nil {
			return false
		}
		exts, err := s.Map("f", off, 1)
		if err != nil {
			return false
		}
		return len(exts) == 1 && exts[0].Disk == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMapCoversRangeExactly(t *testing.T) {
	// Property: the extents of any range sum to the range length and
	// successive stripe rows on a disk are contiguous blocks.
	rng := rand.New(rand.NewSource(7))
	s := MustSubsystem(6)
	st := Striping{StartDisk: 2, Factor: 4, UnitBytes: 4096}
	size := int64(1 << 20)
	if err := s.Place("f", size, st); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		off := rng.Int63n(size - 1)
		n := 1 + rng.Int63n(size-off)
		exts, err := s.Map("f", off, n)
		if err != nil {
			t.Fatal(err)
		}
		var tot int64
		for _, e := range exts {
			tot += e.Bytes
			if e.Disk < 0 || e.Disk >= 6 {
				t.Fatalf("bad disk %d", e.Disk)
			}
		}
		if tot != n {
			t.Fatalf("extents cover %d of %d bytes", tot, n)
		}
	}
}

func TestSizeStripingAccessors(t *testing.T) {
	s := MustSubsystem(4)
	st := Striping{StartDisk: 1, Factor: 2, UnitBytes: 1024}
	if err := s.Place("f", 5000, st); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.SizeOf("f"); !ok || got != 5000 {
		t.Errorf("SizeOf = %d, %v", got, ok)
	}
	if _, ok := s.SizeOf("g"); ok {
		t.Error("SizeOf unknown file ok")
	}
	if got, ok := s.StripingOf("f"); !ok || got != st {
		t.Errorf("StripingOf = %+v, %v", got, ok)
	}
	ds := s.DisksOf("f")
	if len(ds) != 2 || ds[0] != 1 || ds[1] != 2 {
		t.Errorf("DisksOf = %v", ds)
	}
	if s.DisksOf("g") != nil {
		t.Error("DisksOf unknown file non-nil")
	}
	if s.NumDisks() != 4 {
		t.Error("NumDisks")
	}
	fs := s.Files()
	if len(fs) != 1 || fs[0] != "f" {
		t.Errorf("Files = %v", fs)
	}
}

func TestFileIDsAndUnitKeys(t *testing.T) {
	s := MustSubsystem(4)
	sizes := map[string]int64{"a": 4096*3 + 1, "b": 4096, "c": 4096 * 5}
	for _, name := range []string{"a", "b", "c"} {
		if err := s.Place(name, sizes[name], Striping{Factor: 2, UnitBytes: 4096}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Files(); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("Files = %v, want placement order", got)
	}
	seen := make(map[uint64]string)
	var want uint64
	for i, name := range s.Files() {
		id, ok := s.FileID(name)
		if !ok || int(id) != i {
			t.Fatalf("FileID(%q) = %d, %v; want %d", name, id, ok, i)
		}
		units := (sizes[name] + 4095) / 4096
		for u := int64(0); u < units; u++ {
			k, err := s.UnitKey(id, u)
			if err != nil {
				t.Fatal(err)
			}
			if k != want {
				t.Errorf("UnitKey(%s, %d) = %d, want %d (consecutive)", name, u, k, want)
			}
			if prev, dup := seen[k]; dup {
				t.Errorf("UnitKey(%s, %d) = %d collides with %s", name, u, k, prev)
			}
			seen[k] = name
			want++
		}
		if _, err := s.UnitKey(id, units); err == nil {
			t.Errorf("UnitKey(%s, %d) past the last unit accepted", name, units)
		}
	}
	if _, ok := s.FileID("nope"); ok {
		t.Error("FileID of an unplaced file found")
	}
}
