package influence

import (
	"math"
	"math/bits"

	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// Lattice scores the boxes of one search over one space — a DT run's
// pieces, merge attempts and re-score — from half-space bitsets instead of
// row tests. Per continuous column and bound it keeps one bitset over each
// group's Layout positions for v ≥ lo, v < hi or v ≤ hi, and per discrete
// column and code set one from Layout.ClauseMask. A box's matches in a
// group are the AND of its clauses' bitsets, folded from the lowest bit up:
// Layout's order, which is ascending row order, so a box's selections are
// Scorer.Select's, bit for bit. A NaN fails every comparison in a bitset as
// it does in a row test, and ±Inf compare as they do there.
//
// Nothing is built before the first box the selection memo does not hold:
// then the Layout, and each half-space when a box first needs it. A box
// folded here goes into the scorer's selection memo when the memo keeps
// this space's boxes. The Lattice belongs to the search that started it and
// is dropped with it; it has that one user and is not safe for concurrent
// use.
type Lattice struct {
	s     *Scorer
	space *predicate.Space
	memo  bool // the scorer's selection memo keeps this space's boxes

	l    *Layout // nil until the first fold
	off  []int   // group g's words are [off[g], off[g+1]) of every bitset
	half map[halfSpace][]uint64
	// sels is the scratch a fold the memo does not keep folds into.
	sels []Selection

	masks, misses int64
}

// halfSpace names one bitset: a bound of a continuous column (op geLo,
// ltHi or leHi, v the bound's Float64bits) or a code set of a discrete one
// (op inCodes, v the set).
type halfSpace struct {
	col int
	op  uint8
	v   uint64
}

const (
	geLo uint8 = iota
	ltHi
	leHi
	inCodes
)

// NewLattice starts the lattice of one search whose boxes are of space.
func (s *Scorer) NewLattice(space *predicate.Space) *Lattice {
	return &Lattice{s: s, space: space, memo: s.sels != nil && s.selsSpace == space}
}

// Space returns the space the lattice's boxes are of.
func (l *Lattice) Space() *predicate.Space { return l.space }

// Stats reports the half-space bitsets built so far and the boxes folded:
// those the selection memo did not hold.
func (l *Lattice) Stats() (masks, misses int64) { return l.masks, l.misses }

// Parts is Scorer.PartsMatched of the predicate b holds. When no Box holds
// the predicate (boxed false) it is PartsMatched(p): p is folded row by row
// and kept nowhere.
func (l *Lattice) Parts(b predicate.Box, boxed bool, p predicate.Predicate) (outMean, holdPenalty float64, matched int) {
	switch {
	case !boxed:
		return l.s.PartsMatched(p)
	case l.s.rem == nil:
		// A black-box aggregate has no selections to fold.
		return l.s.PartsMatched(l.space.Predicate(b))
	case l.memo:
		if sels, ok := l.s.sels.get(b); ok {
			return l.s.ScoreMatched(sels)
		}
		sels := l.fold(b, make([]Selection, 0, len(l.s.sizes)))
		if b == b { // a NaN bound is never == itself: no lookup could find it
			l.s.sels.put(b, sels)
		}
		return l.s.ScoreMatched(sels)
	}
	l.sels = l.fold(b, l.sels[:0])
	return l.s.ScoreMatched(l.sels)
}

// fold appends b's selection of every group to dst, outliers then
// hold-outs, and counts one call per group.
func (l *Lattice) fold(b predicate.Box, dst []Selection) []Selection {
	if l.l == nil {
		l.build()
	}
	var cs [predicate.MaxBoxDims]predicate.BoxClause
	var hs [2 * predicate.MaxBoxDims][]uint64
	k := 0
	for _, c := range cs[:l.space.Clauses(b, &cs)] {
		if !c.Continuous {
			hs[k] = l.mask(halfSpace{c.Col, inCodes, c.Codes})
			k++
			continue
		}
		hi := halfSpace{c.Col, ltHi, math.Float64bits(c.Hi)}
		if c.HiInc {
			hi.op = leHi
		}
		hs[k], hs[k+1] = l.mask(halfSpace{c.Col, geLo, math.Float64bits(c.Lo)}), l.mask(hi)
		k += 2
	}
	for g := range l.l.groups {
		lg := &l.l.groups[g]
		var x selection
		for w, at := 0, l.off[g]; w<<6 < lg.n; w, at = w+1, at+1 {
			n := min(64, lg.n-w<<6)
			m := ^uint64(0) >> uint(64-n)
			for _, h := range hs[:k] {
				m &= h[at]
			}
			if m != 0 {
				x.take(lg.vals, w<<6, n, m, true)
			}
		}
		dst = append(dst, x.Selection)
	}
	l.l.Count(len(l.l.groups))
	l.misses++
	return dst
}

// build lays the groups out, on the first fold.
func (l *Lattice) build() {
	l.l = l.s.layout()
	l.off = make([]int, len(l.l.groups)+1)
	for g := range l.l.groups {
		l.off[g+1] = l.off[g] + l.l.Words(g)
	}
	l.half = make(map[halfSpace][]uint64)
}

// mask returns h's bitset over every group, building it on first use.
func (l *Lattice) mask(h halfSpace) []uint64 {
	if m, ok := l.half[h]; ok {
		return m
	}
	// One bound of a range clause: the other is the unbounded side, which
	// every value but a NaN satisfies, as a NaN fails the bound anyway.
	c := predicate.Clause{Col: h.col, Kind: relation.Continuous, Lo: math.Inf(-1), Hi: math.Inf(1), HiInc: true}
	switch h.op {
	case geLo:
		c.Lo = math.Float64frombits(h.v)
	case ltHi, leHi:
		c.Hi, c.HiInc = math.Float64frombits(h.v), h.op == leHi
	default:
		c.Kind = relation.Discrete
		for codes := h.v; codes != 0; codes &= codes - 1 {
			c.Values = append(c.Values, int32(bits.TrailingZeros64(codes)))
		}
	}
	m := make([]uint64, l.off[len(l.off)-1])
	for g := range l.l.groups {
		l.l.ClauseMask(g, &c, m[l.off[g]:l.off[g+1]])
	}
	l.half[h] = m
	l.masks++
	return m
}
