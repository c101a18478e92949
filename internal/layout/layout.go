// Package layout models the placement of array files on the disk
// subsystem. Following the paper (and PVFS), each array is stored in
// its own file, striped across I/O nodes according to a 3-tuple
// (starting disk, stripe factor, stripe size); each I/O node has one
// disk and no further striping is applied at the node level.
package layout

import (
	"fmt"
	"math"
	"sort"
)

// BlockSize is the logical block size (bytes) used for request start
// block numbers, matching conventional 512-byte sectors.
const BlockSize = 512

// Striping is the disk layout of one array file, the paper's 3-tuple
// (starting disk, stripe factor, stripe size).
type Striping struct {
	// StartDisk is the first I/O node the file is striped from.
	StartDisk int
	// Factor is the number of disks the file is striped over.
	Factor int
	// UnitBytes is the stripe unit size in bytes.
	UnitBytes int64
}

// Validate checks the striping against the subsystem size.
func (s Striping) Validate(numDisks int) error {
	if s.Factor <= 0 || s.Factor > numDisks {
		return fmt.Errorf("layout: stripe factor %d out of range (1..%d)", s.Factor, numDisks)
	}
	if s.StartDisk < 0 || s.StartDisk >= numDisks {
		return fmt.Errorf("layout: starting disk %d out of range (0..%d)", s.StartDisk, numDisks-1)
	}
	if s.UnitBytes <= 0 {
		return fmt.Errorf("layout: stripe unit %d must be positive", s.UnitBytes)
	}
	if s.UnitBytes%BlockSize != 0 {
		return fmt.Errorf("layout: stripe unit %d not a multiple of the %d-byte block size", s.UnitBytes, BlockSize)
	}
	return nil
}

// Disks returns the list of disk ids the striping uses, in stripe
// order starting from StartDisk.
func (s Striping) Disks(numDisks int) []int {
	out := make([]int, s.Factor)
	for i := 0; i < s.Factor; i++ {
		out[i] = (s.StartDisk + i) % numDisks
	}
	return out
}

// DiskOfUnit returns the disk id that holds stripe unit u.
func (s Striping) DiskOfUnit(u int64, numDisks int) int {
	return (s.StartDisk + int(u%int64(s.Factor))) % numDisks
}

// UnitOf returns the stripe unit index containing byte offset off.
func (s Striping) UnitOf(off int64) int64 { return off / s.UnitBytes }

// Extent is a contiguous byte range on one disk, expressed as a start
// block number and a size in bytes.
type Extent struct {
	Disk  int
	Block int64
	Bytes int64
}

// Subsystem tracks the files placed on a multi-disk subsystem and
// maps array byte ranges to per-disk extents with absolute block
// numbers. Files are allocated disk space in placement order, and
// numbered in that order: a file's id is its index in Files, and the
// unit-granularity hot path (MapUnit, UnitKey) takes ids, not names.
type Subsystem struct {
	numDisks int
	ids      map[string]int32
	files    []placedFile // indexed by file id
	names    []string     // indexed by file id
	nextFree []int64
	// units is the number of stripe units placed so far, the next
	// file's first UnitKey.
	units int64
}

// placedFile is one placed file.
type placedFile struct {
	st   Striping
	size int64
	// firstUnit is the UnitKey of the file's unit 0; numUnits is its
	// stripe unit count.
	firstUnit, numUnits int64
	// base[d] is the starting byte of the file's local allocation on
	// disk d (-1 for disks outside its stripe set).
	base []int64
}

// SubsystemSizeError reports an invalid disk count passed to
// NewSubsystem.
type SubsystemSizeError struct {
	NumDisks int
}

func (e *SubsystemSizeError) Error() string {
	return fmt.Sprintf("layout: subsystem needs at least one disk, got %d", e.NumDisks)
}

// NotPlacedError reports a lookup of a file that was never placed on
// the subsystem.
type NotPlacedError struct {
	File string
}

func (e *NotPlacedError) Error() string {
	return fmt.Sprintf("layout: file %q not placed", e.File)
}

// NewSubsystem returns an empty subsystem with the given number of
// disks (I/O nodes). A non-positive disk count yields a
// *SubsystemSizeError.
func NewSubsystem(numDisks int) (*Subsystem, error) {
	if numDisks <= 0 {
		return nil, &SubsystemSizeError{NumDisks: numDisks}
	}
	return &Subsystem{
		numDisks: numDisks,
		ids:      make(map[string]int32),
		nextFree: make([]int64, numDisks),
	}, nil
}

// MustSubsystem is NewSubsystem for statically valid disk counts
// (tests, example setup); it panics on error.
func MustSubsystem(numDisks int) *Subsystem {
	s, err := NewSubsystem(numDisks)
	if err != nil {
		panic(err)
	}
	return s
}

// NumDisks returns the number of disks in the subsystem.
func (s *Subsystem) NumDisks() int { return s.numDisks }

// Files returns the placed file names in placement order: the name
// table file ids index. The slice is shared and must not be modified.
func (s *Subsystem) Files() []string { return s.names[:len(s.names):len(s.names)] }

// FileID returns the id of a placed file.
func (s *Subsystem) FileID(name string) (int32, bool) {
	id, ok := s.ids[name]
	return id, ok
}

// file returns the placed file with the given name.
func (s *Subsystem) file(name string) (*placedFile, error) {
	id, ok := s.ids[name]
	if !ok {
		return nil, &NotPlacedError{File: name}
	}
	return &s.files[id], nil
}

// Place allocates space for a file of the given size with the given
// striping. The per-disk share of the file is allocated contiguously
// at each disk's current allocation frontier.
func (s *Subsystem) Place(name string, size int64, st Striping) error {
	if _, dup := s.ids[name]; dup {
		return fmt.Errorf("layout: file %q already placed", name)
	}
	if size <= 0 {
		return fmt.Errorf("layout: file %q has non-positive size %d", name, size)
	}
	if err := st.Validate(s.numDisks); err != nil {
		return fmt.Errorf("layout: file %q: %w", name, err)
	}
	bases := make([]int64, s.numDisks)
	for i := range bases {
		bases[i] = -1
	}
	units := (size + st.UnitBytes - 1) / st.UnitBytes
	if units > math.MaxInt64-s.units {
		return fmt.Errorf("layout: file %q: subsystem exceeds %d stripe units", name, int64(math.MaxInt64))
	}
	if len(s.files) == math.MaxInt32 {
		return fmt.Errorf("layout: file %q: subsystem holds %d files already", name, len(s.files))
	}
	for _, d := range st.Disks(s.numDisks) {
		// Per-disk share: ceil(units/Factor) stripe units, rounded up
		// so every disk in the stripe set reserves the same extent.
		perDisk := (units + int64(st.Factor) - 1) / int64(st.Factor) * st.UnitBytes
		bases[d] = s.nextFree[d]
		s.nextFree[d] += perDisk
	}
	s.ids[name] = int32(len(s.files))
	s.files = append(s.files, placedFile{st: st, size: size, firstUnit: s.units, numUnits: units, base: bases})
	s.names = append(s.names, name)
	s.units += units
	return nil
}

// StripingOf returns the striping of a placed file.
func (s *Subsystem) StripingOf(name string) (Striping, bool) {
	f, err := s.file(name)
	if err != nil {
		return Striping{}, false
	}
	return f.st, true
}

// SizeOf returns the placed size of a file.
func (s *Subsystem) SizeOf(name string) (int64, bool) {
	f, err := s.file(name)
	if err != nil {
		return 0, false
	}
	return f.size, true
}

// DisksOf returns the disks a placed file occupies, sorted ascending.
func (s *Subsystem) DisksOf(name string) []int {
	f, err := s.file(name)
	if err != nil {
		return nil
	}
	ds := f.st.Disks(s.numDisks)
	sort.Ints(ds)
	return ds
}

// DiskOf returns the disk holding byte offset off of the named file.
func (s *Subsystem) DiskOf(name string, off int64) (int, error) {
	f, err := s.file(name)
	if err != nil {
		return 0, err
	}
	if off < 0 || off >= f.size {
		return 0, fmt.Errorf("layout: file %q: offset %d out of range [0,%d)", name, off, f.size)
	}
	return f.st.DiskOfUnit(f.st.UnitOf(off), s.numDisks), nil
}

// UnitOf returns the stripe unit index containing byte offset off of
// the named file. Unit indices are file-global and suitable as buffer
// cache keys.
func (s *Subsystem) UnitOf(name string, off int64) (int64, error) {
	f, err := s.file(name)
	if err != nil {
		return 0, err
	}
	return f.st.UnitOf(off), nil
}

// Map splits the byte range [off, off+n) of the named file into
// per-disk extents with absolute block numbers, in ascending file
// offset order.
func (s *Subsystem) Map(name string, off, n int64) ([]Extent, error) {
	f, err := s.file(name)
	if err != nil {
		return nil, err
	}
	st, size := f.st, f.size
	if off < 0 || n <= 0 || off+n > size {
		return nil, fmt.Errorf("layout: file %q: range [%d,%d) out of [0,%d)", name, off, off+n, size)
	}
	type span struct {
		disk  int
		start int64 // disk-local byte
		bytes int64
	}
	var spans []span
	for n > 0 {
		u := st.UnitOf(off)
		inUnit := off - u*st.UnitBytes
		take := st.UnitBytes - inUnit
		if take > n {
			take = n
		}
		d := st.DiskOfUnit(u, s.numDisks)
		localByte := f.base[d] + (u/int64(st.Factor))*st.UnitBytes + inUnit
		// Merge with the previous span when contiguous on disk.
		if k := len(spans) - 1; k >= 0 && spans[k].disk == d && spans[k].start+spans[k].bytes == localByte {
			spans[k].bytes += take
		} else {
			spans = append(spans, span{disk: d, start: localByte, bytes: take})
		}
		off += take
		n -= take
	}
	out := make([]Extent, len(spans))
	for i, sp := range spans {
		out[i] = Extent{Disk: sp.disk, Block: sp.start / BlockSize, Bytes: sp.bytes}
	}
	return out, nil
}

// unit returns the record of file id after checking that the file is
// placed and holds unit u.
func (s *Subsystem) unit(id int32, u int64) (*placedFile, error) {
	if id < 0 || int(id) >= len(s.files) {
		return nil, fmt.Errorf("layout: file id %d not placed", id)
	}
	f := &s.files[id]
	if u < 0 || u >= f.numUnits {
		return nil, fmt.Errorf("layout: file %q: unit %d out of range", s.names[id], u)
	}
	return f, nil
}

// MapUnit maps one whole stripe unit of file id to its single disk
// extent. Requests in the simulated workloads are issued at
// stripe-unit granularity, so this is the hot path: it indexes the
// file table and looks nothing up by name.
func (s *Subsystem) MapUnit(id int32, u int64) (Extent, error) {
	f, err := s.unit(id, u)
	if err != nil {
		return Extent{}, err
	}
	off := u * f.st.UnitBytes
	n := min(f.st.UnitBytes, f.size-off)
	d := f.st.DiskOfUnit(u, s.numDisks)
	localByte := f.base[d] + (u/int64(f.st.Factor))*f.st.UnitBytes
	return Extent{Disk: d, Block: localByte / BlockSize, Bytes: n}, nil
}

// UnitKey packs unit u of file id into one integer, for keying the
// buffer cache. Every placed file's units are numbered consecutively
// in placement order, so the packing is injective without bounding
// the file count or the unit index separately. Like MapUnit it
// rejects an unplaced file or an out-of-range unit, so a key never
// aliases another file's unit.
func (s *Subsystem) UnitKey(id int32, u int64) (uint64, error) {
	f, err := s.unit(id, u)
	if err != nil {
		return 0, err
	}
	return uint64(f.firstUnit + u), nil
}
