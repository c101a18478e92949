package access

import (
	"testing"

	"sdpm/internal/ir"
	"sdpm/internal/layout"
)

// TestWalkAllocationsIndependentOfTripCount checks that the walker's
// allocations are per nest, not per outer iteration: walking one nest
// at four times the outer trip count allocates no more. The nest
// mixes a conforming row-major reference, a column traversal of a
// row-major array, and a blocked array, so the linear and the blocked
// walkers are both covered.
func TestWalkAllocationsIndependentOfTripCount(t *testing.T) {
	const maxOuter = 64
	build := func(outer int64) (*ir.Program, *layout.Subsystem) {
		b := ir.NewBuilder("allocs")
		u := b.Array2D("u", maxOuter, 64)
		v := b.Array2D("v", 64, maxOuter)
		w := b.Array2D("w", maxOuter, 64)
		w.Block = []int64{8, 8}
		b.Nest("n", ir.L("i", outer), ir.L("j", 64)).
			Stmt(1, ir.R(u, ir.Var(0), ir.Var(1)), ir.R(v, ir.Var(1), ir.Var(0))).
			Stmt(1, ir.W(w, ir.Var(0), ir.Var(1)))
		p := b.MustBuild()
		sub := layout.MustSubsystem(4)
		if err := PlaceArrays(p, sub, layout.Striping{StartDisk: 0, Factor: 4, UnitBytes: 512}); err != nil {
			t.Fatal(err)
		}
		return p, sub
	}
	allocs := func(outer int64) (float64, int) {
		p, sub := build(outer)
		touches := 0
		n := testing.AllocsPerRun(20, func() {
			touches = 0
			if err := Walk(p, sub, func(Touch) error { touches++; return nil }); err != nil {
				t.Fatal(err)
			}
		})
		return n, touches
	}
	small, smallTouches := allocs(maxOuter / 4)
	large, largeTouches := allocs(maxOuter)
	if largeTouches < 4*smallTouches {
		t.Fatalf("touches %d at 4x the trip count, %d at 1x: the nest did not scale", largeTouches, smallTouches)
	}
	if large > small {
		t.Errorf("Walk allocates %v at 4x the outer trip count, %v at 1x", large, small)
	}
}
