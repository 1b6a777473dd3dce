package predicate

import (
	"math/bits"
	"sort"

	"github.com/scorpiondb/scorpion/internal/relation"
)

// MaxBoxDims is the most clauses a Box holds.
const MaxBoxDims = 4

// Box is a predicate over a Space held as a comparable value, so the
// Merger can merge, compare and memoize boxes without building a Predicate
// or its Key. It holds, in ascending column order, a [lo, hi] pair per
// continuous clause and a code bitset per discrete clause. Space.Box
// converts a Predicate (a Box cannot hold more than MaxBoxDims clauses, a
// column outside the space's first 64, or a code past 63) and
// Space.Predicate materializes one, clause for clause. == on two boxes of
// one space is Predicate.Equal.
type Box struct {
	cols uint64 // bit k: constrains the space's k-th column in ascending order
	inc  uint8  // bit i: dims[i]'s range includes its upper bound
	dims [MaxBoxDims]boxDim
}

// boxDim is one clause: lo and hi for a continuous column, codes for a
// discrete one; the other fields stay zero.
type boxDim struct {
	lo, hi float64
	codes  uint64
}

// SameColumns reports whether two boxes constrain the same columns.
func (b Box) SameColumns(o Box) bool { return b.cols == o.cols }

// at returns the dimension of the column whose ordinal bit is bit.
func (b *Box) at(bit uint64) *boxDim { return &b.dims[bits.OnesCount64(b.cols&(bit-1))] }

// Merge is Predicate.Merge on boxes: the bounding box of the columns both
// constrain.
func (b Box) Merge(o Box) Box {
	out := Box{cols: b.cols & o.cols}
	k := 0
	for m := out.cols; m != 0; m &= m - 1 {
		bit := m & -m
		i, j := bits.OnesCount64(b.cols&(bit-1)), bits.OnesCount64(o.cols&(bit-1))
		d, y := b.dims[i], o.dims[j]
		inc := b.inc >> i & 1
		if y.lo < d.lo {
			d.lo = y.lo
		}
		if y.hi > d.hi {
			d.hi, inc = y.hi, o.inc>>j&1
		} else if y.hi == d.hi {
			inc |= o.inc >> j & 1
		}
		d.codes |= y.codes
		out.dims[k] = d
		out.inc |= inc << k
		k++
	}
	return out
}

// Box converts p to a Box over s; false when the Box type cannot
// represent it exactly.
func (s *Space) Box(p Predicate) (Box, bool) {
	var b Box
	if len(p.clauses) > MaxBoxDims {
		return b, false
	}
	for i := range p.clauses {
		c := &p.clauses[i]
		k := sort.SearchInts(s.sorted, c.Col)
		if k >= len(s.sorted) || k >= 64 || s.sorted[k] != c.Col ||
			c.Kind != s.Kind(c.Col) || c.Name != s.Name(c.Col) {
			return Box{}, false
		}
		b.cols |= 1 << uint(k)
		d := &b.dims[i]
		if c.Kind == relation.Continuous {
			d.lo, d.hi = c.Lo, c.Hi
			if c.HiInc {
				b.inc |= 1 << uint(i)
			}
			continue
		}
		for j, v := range c.Values {
			if v < 0 || v > 63 || j > 0 && v <= c.Values[j-1] {
				return Box{}, false
			}
			d.codes |= 1 << uint(v)
		}
	}
	return b, true
}

// Predicate materializes b: Space.Box of the result is b, and a predicate
// b was converted from is Equal to it and has its Key.
func (s *Space) Predicate(b Box) Predicate {
	cs := make([]Clause, bits.OnesCount64(b.cols))
	for i, m := 0, b.cols; m != 0; i, m = i+1, m&(m-1) {
		col := s.sorted[bits.TrailingZeros64(m)]
		d := b.dims[i]
		cs[i] = Clause{Col: col, Name: s.Name(col), Kind: s.Kind(col)}
		if cs[i].Kind == relation.Continuous {
			cs[i].Lo, cs[i].Hi, cs[i].HiInc = d.lo, d.hi, b.inc>>i&1 != 0
			continue
		}
		cs[i].Values = make([]int32, 0, bits.OnesCount64(d.codes))
		for c := d.codes; c != 0; c &= c - 1 {
			cs[i].Values = append(cs[i].Values, int32(bits.TrailingZeros64(c)))
		}
	}
	return newPredicate(cs)
}

// BoxClause is one clause of a Box as Space.Clauses reads it back: the
// clause's column and either its range (continuous) or its code set.
type BoxClause struct {
	Col        int
	Continuous bool
	Lo, Hi     float64
	HiInc      bool
	Codes      uint64 // bit k: code k
}

// Clauses writes b's clauses, in ascending column order, to dst and
// returns how many it wrote.
func (s *Space) Clauses(b Box, dst *[MaxBoxDims]BoxClause) int {
	n := 0
	for m := b.cols; m != 0; m &= m - 1 {
		k := bits.TrailingZeros64(m)
		d := &b.dims[n]
		dst[n] = BoxClause{Col: s.sorted[k], Continuous: s.cont>>uint(k)&1 != 0, Lo: d.lo, Hi: d.hi, HiInc: b.inc>>uint(n)&1 != 0, Codes: d.codes}
		n++
	}
	return n
}

// WithRange returns b with its i-th clause, which must be continuous, set
// to the range [lo, hi], or [lo, hi) when hiInc is false: Space.Box of the
// predicate with that clause's bounds replaced.
func (b Box) WithRange(i int, lo, hi float64, hiInc bool) Box {
	b.dims[i].lo, b.dims[i].hi = lo, hi
	b.inc &^= 1 << uint(i)
	if hiInc {
		b.inc |= 1 << uint(i)
	}
	return b
}

// AdjacentBoxes is Adjacent on boxes.
func (s *Space) AdjacentBoxes(p, q Box, eps float64) bool {
	for m := p.cols & q.cols & s.cont; m != 0; m &= m - 1 {
		a, b := p.at(m&-m), q.at(m&-m)
		if a.lo-eps > b.hi || b.lo-eps > a.hi {
			return false
		}
	}
	return true
}
