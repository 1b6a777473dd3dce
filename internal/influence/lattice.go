package influence

import (
	"math"

	"github.com/scorpiondb/scorpion/internal/predicate"
)

// Lattice scores the boxes of one search over one space — a DT run's
// pieces, an MC run's units, their merge attempts, the shard combine's
// re-score and climb — from half-space bitsets instead of row tests. Per continuous column and bound it keeps one bitset over each
// group's Layout positions for v ≥ lo, v < hi or v ≤ hi, and per discrete
// column and code set one for the set's codes. A box's matches in a
// group are the AND of its clauses' bitsets, folded from the lowest bit up:
// Layout's order, which is ascending row order, so a box's selections are
// Scorer.Select's, bit for bit. A NaN fails every comparison in a bitset as
// it does in a row test, and ±Inf compare as they do there. Above scores a
// box against a floor and stops folding once the box cannot pass it.
//
// Nothing is built before the first box the selection memo does not hold,
// or the first OutlierBits: then the Layout. A half-space's bitset is
// allocated when a box first needs it, and a group's words of it are filled
// when a fold first reaches that group, so a box Above declines on its
// outlier groups fills no hold-out's words. A box folded here goes into the
// scorer's selection memo when the memo keeps this space's boxes. The
// Lattice belongs to the search that started it and is dropped with it; it
// has that one user and is not safe for concurrent use.
type Lattice struct {
	s     *Scorer
	space *predicate.Space
	memo  bool // the scorer's selection memo keeps this space's boxes

	l *Layout // nil until the first fold
	// off[g] is where group g's words start in every bitset; the group
	// built-flags, one bit per group, follow the last group's words.
	off  []int
	half map[halfSpace][]uint64
	// sels is the scratch a fold the memo does not keep folds into, and
	// words the one a group's matches are ANDed into.
	sels  []Selection
	words []uint64

	masks, filled, misses int64
	declined, holdStops   int64
}

// halfSpace names one bitset: a bound of a continuous column (op geLo,
// ltHi or leHi, v the bound's Float64bits) or a code set of a discrete one
// (op inCodes, v the set).
type halfSpace struct {
	col int
	op  uint8
	v   uint64
}

// half is a box's half-space and its bitset.
type half struct {
	halfSpace
	m []uint64
}

const (
	geLo uint8 = iota
	ltHi
	leHi
	inCodes
)

// NewLattice starts the lattice of one search whose boxes are of space.
func (s *Scorer) NewLattice(space *predicate.Space) *Lattice {
	return &Lattice{s: s, space: space, memo: s.sels != nil && s.sels.space == space}
}

// Space returns the space the lattice's boxes are of.
func (l *Lattice) Space() *predicate.Space { return l.space }

// Stats reports the half-space bitsets allocated so far and the boxes
// folded: those the selection memo did not hold, Above's partial folds
// included.
func (l *Lattice) Stats() (masks, misses int64) { return l.masks, l.misses }

// Filled reports the group bitsets filled so far: one per half-space per
// group a fold reached.
func (l *Lattice) Filled() int64 { return l.filled }

// Partial reports whether Above folds a box only as far as its floor needs:
// false over the selection memo and for a black-box aggregate, where every
// box is scored whole.
func (l *Lattice) Partial() bool { return !l.memo && l.s.rem != nil }

// Declines reports the boxes Above found not above their floor: on the
// outlier groups alone, and after folding some of the hold-outs.
func (l *Lattice) Declines() (outliers, holdOuts int64) { return l.declined, l.holdStops }

// Parts is Scorer.PartsMatched of the predicate b holds. When no Box holds
// the predicate (boxed false) it is PartsMatched(p): p is folded row by row
// and kept nowhere.
func (l *Lattice) Parts(b predicate.Box, boxed bool, p predicate.Predicate) Score {
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

// Above is Parts' Value when that Value is above floor; ok is false when
// it is not, and score is then partial. It scores a box through the
// Scorer's objective with a strict floor: the outlier groups first,
// declining without a hold-out fold when they alone do not put the score
// above floor, then the hold-outs in order, declining once the score so far
// is not above floor. When ok, score has the bits Parts gives; a NaN objective is never above any floor, nor is any
// objective above a NaN floor. It counts one call per group folded. A box
// the selection memo keeps, a predicate no Box holds (boxed false) and a
// black-box aggregate are scored whole through Parts and then compared.
func (l *Lattice) Above(b predicate.Box, boxed bool, p predicate.Predicate, floor float64) (score float64, ok bool) {
	s := l.s
	if !boxed || !l.Partial() {
		sc := l.Parts(b, boxed, p)
		return sc.Value, sc.Value > floor
	}
	var buf [2 * predicate.MaxBoxDims]half
	hs := l.halves(b, &buf)
	score, _, _, _, folded, ok := s.objective(func(gi int) (float64, int) {
		x := l.group(gi, hs)
		return s.term(gi, &x, s.sizes[gi]), x.matched
	}, floor, true)
	l.l.Count(folded)
	l.misses++
	switch {
	case ok:
	case folded == len(s.task.Outliers):
		l.declined++
	default:
		l.holdStops++
	}
	return score, ok
}

// OutlierBits returns the matches of the predicate b holds in the outlier
// groups, as one bitset over their Layout positions: group g's position i is
// bit i of the group's words, which follow group g−1's, ⌈|g|/64⌉ words per
// group. It is the AND of b's half-spaces; when no Box holds the predicate
// (boxed false) p is tested row by row. It folds nothing and counts no call.
func (l *Lattice) OutlierBits(b predicate.Box, boxed bool, p predicate.Predicate) []uint64 {
	if l.l == nil {
		l.build()
	}
	nOut := len(l.s.task.Outliers)
	dst := make([]uint64, l.off[nOut])
	if !boxed {
		for g := range nOut {
			l.l.positionMask(g, dst[l.off[g]:l.off[g+1]], func(lo, n int) uint64 { return p.MatchMask(l.s.tab, lo, n) })
		}
		return dst
	}
	var buf [2 * predicate.MaxBoxDims]half
	hs := l.halves(b, &buf)
	for g := range nOut {
		l.and(hs, g, dst[l.off[g]:l.off[g+1]])
	}
	return dst
}

// fold appends b's selection of every group to dst, outliers then
// hold-outs, and counts one call per group.
func (l *Lattice) fold(b predicate.Box, dst []Selection) []Selection {
	var buf [2 * predicate.MaxBoxDims]half
	hs := l.halves(b, &buf)
	for g := range l.l.groups {
		dst = append(dst, l.group(g, hs).Selection)
	}
	l.l.Count(len(l.l.groups))
	l.misses++
	return dst
}

// halves returns the half-spaces whose AND is b, in buf, building the
// layout on the lattice's first fold.
func (l *Lattice) halves(b predicate.Box, buf *[2 * predicate.MaxBoxDims]half) []half {
	if l.l == nil {
		l.build()
	}
	var cs [predicate.MaxBoxDims]predicate.BoxClause
	k := 0
	for _, c := range cs[:l.space.Clauses(b, &cs)] {
		if !c.Continuous {
			buf[k] = l.mask(halfSpace{c.Col, inCodes, c.Codes})
			k++
			continue
		}
		hi := halfSpace{c.Col, ltHi, math.Float64bits(c.Hi)}
		if c.HiInc {
			hi.op = leHi
		}
		buf[k], buf[k+1] = l.mask(halfSpace{c.Col, geLo, math.Float64bits(c.Lo)}), l.mask(hi)
		k += 2
	}
	return buf[:k]
}

// group folds group g's selection of the box whose half-spaces are hs.
func (l *Lattice) group(g int, hs []half) selection {
	lg := &l.l.groups[g]
	m := l.words[:l.off[g+1]-l.off[g]]
	l.and(hs, g, m)
	var x selection
	x.takeMask(lg.vals, lg.n, m, l.s.mode)
	return x
}

// and writes the AND of hs's words of group g, filled first, into dst.
func (l *Lattice) and(hs []half, g int, dst []uint64) {
	l.fill(hs, g)
	n, off := l.l.groups[g].n, l.off[g]
	for w := range dst {
		m := ^uint64(0) >> uint(64-min(64, n-w<<6))
		for _, h := range hs {
			m &= h.m[off+w]
		}
		dst[w] = m
	}
}

// build lays the groups out, on the first fold.
func (l *Lattice) build() {
	l.l = l.s.layout()
	l.off = make([]int, len(l.l.groups)+1)
	most := 0
	for g := range l.l.groups {
		l.off[g+1] = l.off[g] + l.l.Words(g)
		most = max(most, l.l.Words(g))
	}
	l.words = make([]uint64, most)
	l.half = make(map[halfSpace][]uint64)
}

// mask returns h and its bitset over every group, allocating it on first
// use with every group unfilled.
func (l *Lattice) mask(h halfSpace) half {
	m, ok := l.half[h]
	if !ok {
		words := l.off[len(l.off)-1]
		m = make([]uint64, words+(len(l.l.groups)+63)/64)
		l.half[h] = m
		l.masks++
	}
	return half{h, m}
}

// fill fills group g's words of each of hs's bitsets that a fold has not
// reached before. A bound of a continuous column costs one comparison per
// row, a code set one lookup per row.
func (l *Lattice) fill(hs []half, g int) {
	flag, bit := l.off[len(l.off)-1]+g>>6, uint64(1)<<(g&63)
	for _, h := range hs {
		if h.m[flag]&bit != 0 {
			continue
		}
		h.m[flag] |= bit
		l.filled++
		dst := h.m[l.off[g]:l.off[g+1]]
		if h.op == inCodes {
			codes := l.s.tab.Codes(h.col)
			l.l.positionMask(g, dst, func(lo, n int) uint64 { return codeMask(codes[lo:lo+n], h.v) })
			continue
		}
		col, op, bound := l.s.tab.Floats(h.col), h.op, math.Float64frombits(h.v)
		l.l.positionMask(g, dst, func(lo, n int) uint64 { return halfMask(col[lo:lo+n], op, bound) })
	}
}

// halfMask is bit i set when vals[i] lies in the half-space op of bound:
// v ≥ bound, v < bound or v ≤ bound. A NaN fails each, as it fails a row
// test, and ±Inf compare as they do there. vals holds at most 64 values. A
// full window is built in four interleaved lanes of 16 values, each from its
// top with a constant shift, so no bit waits on a variable shift of the one
// before; a shorter window goes value by value (the & 63 tells the compiler
// the shift is in range).
func halfMask(vals []float64, op uint8, bound float64) uint64 {
	if len(vals) == 64 {
		w := (*[64]float64)(vals)
		var m0, m1, m2, m3 uint64
		switch op {
		case geLo:
			for i := 15; i >= 0; i-- {
				m0 = m0<<1 | b2u(w[i] >= bound)
				m1 = m1<<1 | b2u(w[16+i] >= bound)
				m2 = m2<<1 | b2u(w[32+i] >= bound)
				m3 = m3<<1 | b2u(w[48+i] >= bound)
			}
		case ltHi:
			for i := 15; i >= 0; i-- {
				m0 = m0<<1 | b2u(w[i] < bound)
				m1 = m1<<1 | b2u(w[16+i] < bound)
				m2 = m2<<1 | b2u(w[32+i] < bound)
				m3 = m3<<1 | b2u(w[48+i] < bound)
			}
		default:
			for i := 15; i >= 0; i-- {
				m0 = m0<<1 | b2u(w[i] <= bound)
				m1 = m1<<1 | b2u(w[16+i] <= bound)
				m2 = m2<<1 | b2u(w[32+i] <= bound)
				m3 = m3<<1 | b2u(w[48+i] <= bound)
			}
		}
		return m0 | m1<<16 | m2<<32 | m3<<48
	}
	var m uint64
	switch op {
	case geLo:
		for i, v := range vals {
			m |= b2u(v >= bound) << (uint(i) & 63)
		}
	case ltHi:
		for i, v := range vals {
			m |= b2u(v < bound) << (uint(i) & 63)
		}
	default:
		for i, v := range vals {
			m |= b2u(v <= bound) << (uint(i) & 63)
		}
	}
	return m
}

// codeMask is bit i set when codes[i] is in set, bit k of which is code k.
func codeMask(codes []int32, set uint64) uint64 {
	var m uint64
	for i, c := range codes {
		m |= b2u(uint32(c) < 64 && set>>(uint32(c)&63)&1 != 0) << (uint(i) & 63)
	}
	return m
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
