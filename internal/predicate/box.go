package predicate

import (
	"math"
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

// Overlap estimates the fraction of q's box that lies inside p, assuming
// uniform density (the Merger's §6.3 volume fraction): the product of the
// per-column overlaps — first over the columns q constrains, then over
// those only p constrains, each ascending, every factor computed from the
// same floats in the same order as a walk over the predicates' clauses.
func (s *Space) Overlap(q, p Box) float64 {
	frac := 1.0
	for m := q.cols & p.cols; m != 0; m &= m - 1 {
		bit := m & -m
		a, b := q.at(bit), p.at(bit)
		if s.cont&bit != 0 {
			width := a.hi - a.lo
			lo := math.Max(a.lo, b.lo)
			hi := math.Min(a.hi, b.hi)
			if width <= 0 {
				// Point range: inside or out.
				if b.lo <= a.lo && a.lo <= b.hi {
					continue
				}
				return 0
			}
			if hi <= lo {
				return 0
			}
			frac *= (hi - lo) / width
			continue
		}
		n := bits.OnesCount64(a.codes)
		if n == 0 {
			return 0
		}
		common := bits.OnesCount64(a.codes & b.codes)
		if common == 0 {
			return 0
		}
		frac *= float64(common) / float64(n)
	}
	// Columns only p constrains: q spans the whole domain there, so the
	// overlap shrinks by p's coverage of the domain.
	for m := p.cols &^ q.cols; m != 0; m &= m - 1 {
		bit := m & -m
		b, d := p.at(bit), s.doms[bits.TrailingZeros64(bit)]
		if s.cont&bit != 0 {
			width := d.Hi - d.Lo
			if width <= 0 {
				continue
			}
			lo := math.Max(b.lo, d.Lo)
			hi := math.Min(b.hi, d.Hi)
			if hi <= lo {
				return 0
			}
			frac *= (hi - lo) / width
			continue
		}
		if d.Card <= 0 {
			continue
		}
		frac *= float64(bits.OnesCount64(b.codes)) / float64(d.Card)
	}
	return frac
}
