// Package ir defines the loop-nest intermediate representation used by
// the software-directed disk power management compiler.
//
// The representation captures exactly the information the paper's
// analysis consumes: perfectly nested affine loop nests whose body
// statements reference multi-dimensional arrays through affine
// subscript expressions, plus a per-statement compute-cycle cost used
// for cycle estimation. Programs are a sequence of nests over a set of
// disk-resident arrays.
package ir

import (
	"fmt"
	"strings"
)

// Array describes a disk-resident multi-dimensional array. Each array
// is stored in its own file, striped over the disk subsystem according
// to a layout chosen outside the IR (see internal/layout).
type Array struct {
	// Name identifies the array; unique within a Program.
	Name string
	// Dims holds the extent of each dimension. For a row-major array
	// Dims[0] is the slowest-varying storage dimension.
	Dims []int64
	// ElemSize is the size of one element in bytes (8 for float64).
	ElemSize int64
	// RowMajor selects the storage order of the file holding the
	// array: true for row-major (C order), false for column-major
	// (Fortran order). The paper's tiling transformation may flip
	// this to make the access pattern conform to the storage layout.
	RowMajor bool
	// Block, when non-nil, selects a blocked (tiled) storage layout:
	// the array is stored tile-by-tile, each tile of extents Block
	// stored contiguously, with both the tile grid and the elements
	// within a tile ordered according to RowMajor. Every Block[d]
	// must divide Dims[d]. The layout-aware tiling transformation
	// (TL+DL) produces blocked layouts so one iteration tile maps to
	// one stripe unit.
	Block []int64
}

// Elems returns the total number of elements in the array.
func (a *Array) Elems() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// SizeBytes returns the total size of the array's file in bytes.
func (a *Array) SizeBytes() int64 { return a.Elems() * a.ElemSize }

// ArityError reports an index vector whose length does not match the
// array's rank. OffsetOf panics with it — the mismatch is a caller
// bug, not an input condition — but carrying a typed value lets
// recovery code (the experiment engine's cell isolation) identify the
// failure instead of matching on a message string.
type ArityError struct {
	Array   string
	Rank    int
	Indices int
}

func (e *ArityError) Error() string {
	return fmt.Sprintf("ir: array %s has %d dims, got %d indices", e.Array, e.Rank, e.Indices)
}

// OffsetOf returns the byte offset of the element at the given index
// vector within the array's file, honoring the storage order and, if
// set, the blocked layout. An index vector whose length differs from
// the array's rank is a caller bug: OffsetOf panics with an
// *ArityError.
func (a *Array) OffsetOf(idx []int64) int64 {
	if len(idx) != len(a.Dims) {
		panic(&ArityError{Array: a.Name, Rank: len(a.Dims), Indices: len(idx)})
	}
	if a.Block == nil {
		return a.linearize(idx, a.Dims) * a.ElemSize
	}
	// Blocked layout: linearize the tile coordinate over the tile
	// grid, then the element coordinate within the tile, both in the
	// array's storage order.
	var tileLin, withinLin int64
	tileElems := int64(1)
	for i := range idx {
		d := i
		if !a.RowMajor {
			d = len(idx) - 1 - i
		}
		tileLin = tileLin*(a.Dims[d]/a.Block[d]) + idx[d]/a.Block[d]
		withinLin = withinLin*a.Block[d] + idx[d]%a.Block[d]
		tileElems *= a.Block[d]
	}
	return (tileLin*tileElems + withinLin) * a.ElemSize
}

// linearize flattens an index vector over the given extents in the
// array's storage order.
func (a *Array) linearize(idx, dims []int64) int64 {
	var lin int64
	if a.RowMajor {
		for d := 0; d < len(idx); d++ {
			lin = lin*dims[d] + idx[d]
		}
	} else {
		for d := len(idx) - 1; d >= 0; d-- {
			lin = lin*dims[d] + idx[d]
		}
	}
	return lin
}

// InnerStride returns the byte distance between elements that differ
// by one in dimension dim, under the array's storage order. It is
// only meaningful for linear (non-blocked) layouts; for blocked
// arrays the distance depends on the position within the tile.
func (a *Array) InnerStride(dim int) int64 {
	stride := a.ElemSize
	if a.RowMajor {
		for d := len(a.Dims) - 1; d > dim; d-- {
			stride *= a.Dims[d]
		}
	} else {
		for d := 0; d < dim; d++ {
			stride *= a.Dims[d]
		}
	}
	return stride
}

// Expr is an affine expression over the loop variables of the
// enclosing nest: Coeffs[d]*iv[d] summed over depths d, plus Const.
// Coeffs may be shorter than the nest depth; missing coefficients are
// zero.
type Expr struct {
	Coeffs []int64
	Const  int64
}

// Var returns the affine expression that evaluates to the loop
// variable at the given depth.
func Var(depth int) Expr {
	c := make([]int64, depth+1)
	c[depth] = 1
	return Expr{Coeffs: c}
}

// Cnst returns the constant affine expression c.
func Cnst(c int64) Expr { return Expr{Const: c} }

// Plus returns e + c.
func (e Expr) Plus(c int64) Expr {
	out := Expr{Coeffs: append([]int64(nil), e.Coeffs...), Const: e.Const + c}
	return out
}

// Times returns e scaled by k.
func (e Expr) Times(k int64) Expr {
	out := Expr{Coeffs: make([]int64, len(e.Coeffs)), Const: e.Const * k}
	for i, c := range e.Coeffs {
		out.Coeffs[i] = c * k
	}
	return out
}

// Add returns the sum of two affine expressions.
func (e Expr) Add(o Expr) Expr {
	n := len(e.Coeffs)
	if len(o.Coeffs) > n {
		n = len(o.Coeffs)
	}
	out := Expr{Coeffs: make([]int64, n), Const: e.Const + o.Const}
	for i := range out.Coeffs {
		if i < len(e.Coeffs) {
			out.Coeffs[i] += e.Coeffs[i]
		}
		if i < len(o.Coeffs) {
			out.Coeffs[i] += o.Coeffs[i]
		}
	}
	return out
}

// Eval evaluates the expression for the given iteration vector.
func (e Expr) Eval(iter []int64) int64 {
	v := e.Const
	for d, c := range e.Coeffs {
		if c != 0 {
			v += c * iter[d]
		}
	}
	return v
}

// IsConst reports whether the expression has no loop-variable terms.
func (e Expr) IsConst() bool {
	for _, c := range e.Coeffs {
		if c != 0 {
			return false
		}
	}
	return true
}

// CoeffAt returns the coefficient of the loop variable at depth d.
func (e Expr) CoeffAt(d int) int64 {
	if d < len(e.Coeffs) {
		return e.Coeffs[d]
	}
	return 0
}

// String renders the expression using i0, i1, ... for loop variables.
func (e Expr) String() string {
	var b strings.Builder
	first := true
	for d, c := range e.Coeffs {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteString("+")
		}
		first = false
		if c == 1 {
			fmt.Fprintf(&b, "i%d", d)
		} else {
			fmt.Fprintf(&b, "%d*i%d", c, d)
		}
	}
	if e.Const != 0 || first {
		if !first {
			if e.Const >= 0 {
				b.WriteString("+")
			}
		}
		fmt.Fprintf(&b, "%d", e.Const)
	}
	return b.String()
}

// RefKind distinguishes read references from write references.
type RefKind uint8

// Reference kinds.
const (
	Read RefKind = iota
	Write
)

// String returns "R" for reads and "W" for writes.
func (k RefKind) String() string {
	if k == Write {
		return "W"
	}
	return "R"
}

// Ref is a single array reference with one affine subscript expression
// per array dimension.
type Ref struct {
	Array *Array
	Index []Expr
	Kind  RefKind
}

// OffsetAt returns the byte offset within the array's file touched by
// this reference for the given iteration vector.
func (r *Ref) OffsetAt(iter []int64) int64 {
	return r.OffsetAtScratch(iter, make([]int64, len(r.Index)))
}

// OffsetAtScratch is OffsetAt without the allocation: it evaluates
// the subscripts into scratch, which must have at least len(r.Index)
// elements and is overwritten.
func (r *Ref) OffsetAtScratch(iter, scratch []int64) int64 {
	idx := scratch[:len(r.Index)]
	for d := range r.Index {
		idx[d] = r.Index[d].Eval(iter)
	}
	return r.Array.OffsetOf(idx)
}

// Stmt is one body statement: a set of array references executed once
// per innermost iteration, plus the compute-cycle cost of executing
// the statement once (exclusive of I/O time).
type Stmt struct {
	Refs []Ref
	Cost int64
}

// Arrays returns the set of distinct arrays referenced by the
// statement, in first-reference order.
func (s *Stmt) Arrays() []*Array {
	seen := make(map[*Array]bool, len(s.Refs))
	var out []*Array
	for i := range s.Refs {
		a := s.Refs[i].Array
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// Loop describes one loop of a nest, iterating over the half-open
// interval [Lo, Hi) with positive Step.
type Loop struct {
	Name   string
	Lo, Hi int64
	Step   int64
}

// Trip returns the number of iterations the loop executes.
func (l Loop) Trip() int64 {
	if l.Hi <= l.Lo {
		return 0
	}
	return (l.Hi - l.Lo + l.Step - 1) / l.Step
}

// Nest is a perfectly nested affine loop nest whose body executes all
// statements once per innermost iteration.
type Nest struct {
	Label string
	Loops []Loop
	Stmts []*Stmt
}

// Depth returns the nesting depth.
func (n *Nest) Depth() int { return len(n.Loops) }

// Trips returns the total number of innermost iterations of the nest.
func (n *Nest) Trips() int64 {
	t := int64(1)
	for _, l := range n.Loops {
		t *= l.Trip()
	}
	return t
}

// IterCost returns the compute-cycle cost of one innermost iteration
// (the sum of the statement costs).
func (n *Nest) IterCost() int64 {
	var c int64
	for _, s := range n.Stmts {
		c += s.Cost
	}
	return c
}

// TotalCost returns the compute-cycle cost of executing the whole
// nest.
func (n *Nest) TotalCost() int64 { return n.Trips() * n.IterCost() }

// IndexOf converts a linearized iteration number (0-based, in
// lexicographic execution order) into the iteration vector of actual
// loop-variable values.
func (n *Nest) IndexOf(iter int64) []int64 {
	return n.IndexOfInto(make([]int64, len(n.Loops)), iter)
}

// IndexOfInto is IndexOf without the allocation: it writes the
// iteration vector into iv, which must have len(n.Loops) elements,
// and returns it.
func (n *Nest) IndexOfInto(iv []int64, iter int64) []int64 {
	for d := len(n.Loops) - 1; d >= 0; d-- {
		t := n.Loops[d].Trip()
		if t == 0 {
			iv[d] = 0
			continue
		}
		iv[d] = n.Loops[d].Lo + (iter%t)*n.Loops[d].Step
		iter /= t
	}
	return iv
}

// IterOf is the inverse of IndexOf: it linearizes an iteration vector
// of loop-variable values into the 0-based execution-order index.
func (n *Nest) IterOf(iv []int64) int64 {
	var iter int64
	for d := 0; d < len(n.Loops); d++ {
		t := n.Loops[d].Trip()
		iter = iter*t + (iv[d]-n.Loops[d].Lo)/n.Loops[d].Step
	}
	return iter
}

// Arrays returns the set of distinct arrays referenced anywhere in
// the nest, in first-reference order.
func (n *Nest) Arrays() []*Array {
	seen := make(map[*Array]bool)
	var out []*Array
	for _, s := range n.Stmts {
		for i := range s.Refs {
			a := s.Refs[i].Array
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}

// Program is a sequence of loop nests over a set of disk-resident
// arrays.
type Program struct {
	Name   string
	Arrays []*Array
	Nests  []*Nest
}

// ArrayByName returns the array with the given name, or nil.
func (p *Program) ArrayByName(name string) *Array {
	for _, a := range p.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// TotalBytes returns the sum of the array file sizes.
func (p *Program) TotalBytes() int64 {
	var n int64
	for _, a := range p.Arrays {
		n += a.SizeBytes()
	}
	return n
}

// TotalCost returns the compute-cycle cost of the whole program.
func (p *Program) TotalCost() int64 {
	var c int64
	for _, n := range p.Nests {
		c += n.TotalCost()
	}
	return c
}

// Validate checks the structural invariants of the program: unique
// array names, positive dimensions and element sizes, positive loop
// steps, subscript arity matching array rank, subscript coefficients
// confined to the enclosing nest's depth, and every referenced array
// registered in Arrays.
func (p *Program) Validate() error {
	names := make(map[string]bool, len(p.Arrays))
	registered := make(map[*Array]bool, len(p.Arrays))
	for _, a := range p.Arrays {
		if a.Name == "" {
			return fmt.Errorf("ir: program %q: array with empty name", p.Name)
		}
		if names[a.Name] {
			return fmt.Errorf("ir: program %q: duplicate array name %q", p.Name, a.Name)
		}
		names[a.Name] = true
		registered[a] = true
		if len(a.Dims) == 0 {
			return fmt.Errorf("ir: array %q has no dimensions", a.Name)
		}
		for _, d := range a.Dims {
			if d <= 0 {
				return fmt.Errorf("ir: array %q has non-positive dimension %d", a.Name, d)
			}
		}
		if a.ElemSize <= 0 {
			return fmt.Errorf("ir: array %q has non-positive element size", a.Name)
		}
		if a.Block != nil {
			if len(a.Block) != len(a.Dims) {
				return fmt.Errorf("ir: array %q block rank %d != rank %d", a.Name, len(a.Block), len(a.Dims))
			}
			for d, b := range a.Block {
				if b <= 0 || a.Dims[d]%b != 0 {
					return fmt.Errorf("ir: array %q block extent %d does not divide dim %d", a.Name, b, a.Dims[d])
				}
			}
		}
	}
	for ni, n := range p.Nests {
		if len(n.Loops) == 0 {
			return fmt.Errorf("ir: nest %d (%q) has no loops", ni, n.Label)
		}
		for li, l := range n.Loops {
			if l.Step <= 0 {
				return fmt.Errorf("ir: nest %q loop %d has non-positive step", n.Label, li)
			}
		}
		if len(n.Stmts) == 0 {
			return fmt.Errorf("ir: nest %q has no statements", n.Label)
		}
		for si, s := range n.Stmts {
			if s.Cost < 0 {
				return fmt.Errorf("ir: nest %q stmt %d has negative cost", n.Label, si)
			}
			for ri, r := range s.Refs {
				if r.Array == nil {
					return fmt.Errorf("ir: nest %q stmt %d ref %d has nil array", n.Label, si, ri)
				}
				if !registered[r.Array] {
					return fmt.Errorf("ir: nest %q references unregistered array %q", n.Label, r.Array.Name)
				}
				if len(r.Index) != len(r.Array.Dims) {
					return fmt.Errorf("ir: nest %q stmt %d: array %q has rank %d, subscript has %d exprs",
						n.Label, si, r.Array.Name, len(r.Array.Dims), len(r.Index))
				}
				for _, e := range r.Index {
					if len(e.Coeffs) > len(n.Loops) {
						return fmt.Errorf("ir: nest %q stmt %d: subscript uses loop depth %d, nest depth is %d",
							n.Label, si, len(e.Coeffs), len(n.Loops))
					}
				}
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the program. Arrays are copied too, so
// transformations can mutate layouts without affecting the original.
func (p *Program) Clone() *Program {
	cp := &Program{Name: p.Name}
	amap := make(map[*Array]*Array, len(p.Arrays))
	for _, a := range p.Arrays {
		na := &Array{Name: a.Name, Dims: append([]int64(nil), a.Dims...), ElemSize: a.ElemSize, RowMajor: a.RowMajor}
		if a.Block != nil {
			na.Block = append([]int64(nil), a.Block...)
		}
		amap[a] = na
		cp.Arrays = append(cp.Arrays, na)
	}
	for _, n := range p.Nests {
		nn := &Nest{Label: n.Label, Loops: append([]Loop(nil), n.Loops...)}
		for _, s := range n.Stmts {
			ns := &Stmt{Cost: s.Cost}
			for _, r := range s.Refs {
				nr := Ref{Array: amap[r.Array], Kind: r.Kind}
				for _, e := range r.Index {
					nr.Index = append(nr.Index, Expr{Coeffs: append([]int64(nil), e.Coeffs...), Const: e.Const})
				}
				ns.Refs = append(ns.Refs, nr)
			}
			nn.Stmts = append(nn.Stmts, ns)
		}
		cp.Nests = append(cp.Nests, nn)
	}
	return cp
}
