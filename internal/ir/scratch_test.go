package ir

import (
	"math/rand"
	"testing"
)

// blockedOffsetReference is the blocked-layout offset computed the
// direct way, with explicit tile, within-tile and grid vectors.
func blockedOffsetReference(a *Array, idx []int64) int64 {
	n := len(idx)
	tile := make([]int64, n)
	within := make([]int64, n)
	grid := make([]int64, n)
	tileElems := int64(1)
	for d := 0; d < n; d++ {
		tile[d] = idx[d] / a.Block[d]
		within[d] = idx[d] % a.Block[d]
		grid[d] = a.Dims[d] / a.Block[d]
		tileElems *= a.Block[d]
	}
	return (a.linearize(tile, grid)*tileElems + a.linearize(within, a.Block)) * a.ElemSize
}

// TestScratchVariantsMatchAllocating checks OffsetAtScratch and
// IndexOfInto against OffsetAt and IndexOf on linear, row- and
// column-major, and blocked arrays, with scratch buffers that are
// oversized and full of stale values, and checks blocked offsets
// against the direct tile/within computation.
func TestScratchVariantsMatchAllocating(t *testing.T) {
	arrays := []*Array{
		{Name: "linear", Dims: []int64{96}, ElemSize: 8, RowMajor: true},
		{Name: "row", Dims: []int64{12, 10}, ElemSize: 8, RowMajor: true},
		{Name: "col", Dims: []int64{12, 10}, ElemSize: 4, RowMajor: false},
		{Name: "row3", Dims: []int64{4, 6, 8}, ElemSize: 8, RowMajor: true},
		{Name: "blockedRow", Dims: []int64{12, 10}, ElemSize: 8, RowMajor: true, Block: []int64{4, 5}},
		{Name: "blockedCol", Dims: []int64{12, 10}, ElemSize: 8, RowMajor: false, Block: []int64{3, 2}},
		{Name: "blocked3", Dims: []int64{4, 6, 10}, ElemSize: 2, RowMajor: true, Block: []int64{2, 3, 5}},
	}
	rng := rand.New(rand.NewSource(17))
	scratch := make([]int64, 8)
	for _, a := range arrays {
		// A depth-3 nest whose subscripts mix loop variables, so the
		// reference walks the whole array in a scrambled order.
		nest := &Nest{Loops: []Loop{L("i", 3), LRange("j", 2, 11, 3), L("k", 4)}}
		ref := Ref{Array: a, Index: make([]Expr, len(a.Dims))}
		for d := range a.Dims {
			ref.Index[d] = Expr{Coeffs: []int64{int64(d), 1, int64(d + 1)}}
		}
		iv := make([]int64, nest.Depth())
		for it := int64(0); it < nest.Trips(); it++ {
			for i := range scratch {
				scratch[i] = rng.Int63()
			}
			iv[0], iv[1], iv[2] = -1, -1, -1
			want := nest.IndexOf(it)
			got := nest.IndexOfInto(iv, it)
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("IndexOfInto(%d) = %v, IndexOf = %v", it, got, want)
				}
			}
			// Keep the subscripts in range for the array.
			iter := make([]int64, len(got))
			for d := range got {
				iter[d] = got[d] % 2
			}
			idx := make([]int64, len(ref.Index))
			for d := range idx {
				idx[d] = ref.Index[d].Eval(iter)
				if idx[d] >= a.Dims[d] {
					t.Fatalf("%s: subscript %v out of range", a.Name, idx)
				}
			}
			off := ref.OffsetAtScratch(iter, scratch)
			if alloc := ref.OffsetAt(iter); off != alloc {
				t.Fatalf("%s: OffsetAtScratch(%v) = %d, OffsetAt = %d", a.Name, iter, off, alloc)
			}
			if a.Block != nil {
				if want := blockedOffsetReference(a, idx); off != want {
					t.Fatalf("%s: offset of %v = %d, direct tile computation %d", a.Name, idx, off, want)
				}
			}
		}
	}
	// A zero-trip loop leaves its variable at zero in both variants,
	// whatever the buffer held.
	nest := &Nest{Loops: []Loop{L("i", 3), L("empty", 0)}}
	iv := []int64{7, 7}
	if got := nest.IndexOfInto(iv, 2); got[1] != 0 || got[0] != nest.IndexOf(2)[0] {
		t.Fatalf("IndexOfInto over a zero-trip loop = %v, IndexOf = %v", got, nest.IndexOf(2))
	}
}

// TestScratchVariantsDoNotAllocate pins the point of the scratch
// variants: neither allocates, on linear or blocked arrays.
func TestScratchVariantsDoNotAllocate(t *testing.T) {
	nest := &Nest{Loops: []Loop{L("i", 8), L("j", 8)}}
	iv := make([]int64, 2)
	scratch := make([]int64, 2)
	for _, a := range []*Array{
		{Name: "row", Dims: []int64{8, 8}, ElemSize: 8, RowMajor: true},
		{Name: "blocked", Dims: []int64{8, 8}, ElemSize: 8, RowMajor: false, Block: []int64{4, 2}},
	} {
		ref := Ref{Array: a, Index: []Expr{Var(0), Var(1)}}
		if n := testing.AllocsPerRun(100, func() {
			nest.IndexOfInto(iv, 37)
			ref.OffsetAtScratch(iv, scratch)
		}); n != 0 {
			t.Errorf("%s: scratch variants allocate %v per call", a.Name, n)
		}
	}
}
