package influence

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// Layout is the position-space view of a Scorer's groups, for a search that
// scores many conjunctions drawn from one clause inventory (NAIVE's grid).
// Each group's rows are numbered 0, 1, 2, ... in ascending row order; a
// predicate is handed over as one bitset per group over those positions
// (bit i ⇔ the group's i-th row matches). The search evaluates each clause
// once per group with ClauseMask and scores a conjunction as the AND of its
// clauses' bitsets, instead of testing every row against every conjunction.
// A mask is folded from its lowest bit up, which is ascending row order, and
// scored by the Scorer's objective, so Score returns the very bits
// Scorer.Influence returns for the same predicate.
//
// A Layout belongs to the search that built it and dies with it: the Scorer
// keeps no reference. It is read-only after construction, so the workers of
// a parallel search share one.
type Layout struct {
	s      *Scorer
	groups []layoutGroup // the task's outliers, then its hold-outs
	// subsets reports whether SubsetBound bounds anything (see there).
	subsets bool
}

type layoutGroup struct {
	rows *relation.RowSet
	n    int
	vals []float64 // aggregate value per position; nil for count(*)
	// dir is the outlier's error vector; hold-outs, which have none, carry 0.
	dir float64
	// For SubsetBound, on an outlier group: one is the per-row term of
	// dir·Δ (dir for COUNT and count(*), 0 when the terms are dir·vals),
	// desc the positions by descending term (nil when every term is one),
	// and slack the group's rounding margin.
	one   float64
	desc  []int32
	slack float64
}

// NewLayout lays the scorer's groups out by position, and gives the scorer
// an n^c table when it has none. Call it before scoring, not concurrently
// with it.
func (s *Scorer) NewLayout() *Layout {
	l := s.layout()
	if s.pow == nil {
		s.pow = powerTable(slices.Max(s.sizes))
	}
	l.subsets = l.prepareSubsets()
	return l
}

// layout is NewLayout without the n^c table and SubsetBound, for a Lattice.
func (s *Scorer) layout() *Layout {
	l := &Layout{s: s, groups: make([]layoutGroup, 0, len(s.sizes))}
	nOut := len(s.task.Outliers)
	for gi, n := range s.sizes {
		g := s.group(gi, nOut)
		lg := layoutGroup{rows: g.Rows, n: n}
		if gi < nOut {
			lg.dir = float64(g.Direction)
		}
		switch {
		case s.aggVals == nil:
		case n > 0 && g.Rows.Max()-g.Rows.Min()+1 == n:
			// One run of rows: its values are a window of the column,
			// which the layout only reads and an append leaves as it is.
			lo := g.Rows.Min()
			lg.vals = s.aggVals[lo : lo+n : lo+n]
		default:
			lg.vals = s.groupValues(g.Rows)
		}
		l.groups = append(l.groups, lg)
	}
	return l
}

// Groups reports the number of groups: the task's outliers, then its
// hold-outs.
func (l *Layout) Groups() int { return len(l.groups) }

// Outliers reports the number of outlier groups, which come first.
func (l *Layout) Outliers() int { return len(l.s.task.Outliers) }

// Count adds n group folds to the scorer's Calls counter.
func (l *Layout) Count(n int) { l.s.calls.Add(int64(n)) }

// Words reports the length, in 64-bit words, of group g's position bitsets.
func (l *Layout) Words(g int) int { return (l.groups[g].n + 63) / 64 }

// ClauseMask evaluates the clause over group g's rows into dst, a position
// bitset of Words(g) words.
func (l *Layout) ClauseMask(g int, c *predicate.Clause, dst []uint64) {
	l.positionMask(g, dst, func(lo, n int) uint64 { return c.MatchMask(l.s.tab, lo, n) })
}

// positionMask fills dst, a position bitset of group g, from match: bit i
// of match(lo, n) tells whether row lo+i matches, for each window of n ≤ 64
// rows of one of the group's runs, in ascending row order.
func (l *Layout) positionMask(g int, dst []uint64, match func(lo, n int) uint64) {
	for i := range dst {
		dst[i] = 0
	}
	pos := 0
	l.groups[g].rows.ForEachRun(func(lo, hi int) {
		for ; lo < hi; lo += 64 {
			n := min(64, hi-lo)
			m := match(lo, n)
			w, off := pos>>6, uint(pos&63)
			dst[w] |= m << off
			if int(off)+n > 64 {
				dst[w+1] |= m >> (64 - off)
			}
			pos += n
		}
	})
}

// Score is the objective of the predicate whose matches in group g are
// masks[g], as the Scorer's objective combines it, against floor: it
// declines (ok false) once the score so far is below floor, so a NaN never
// declines, and otherwise returns the bits Scorer.Influence gives. It folds
// the outlier groups, then the hold-outs in order; holdOuts, when not nil,
// is called once before the first hold-out's mask is read, so a caller can
// leave masks[Outliers():] to be filled only when a hold-out is folded.
// folded counts the groups folded; a score declined with folded =
// Outliers() was declined on its outlier groups alone. It counts no call.
func (l *Layout) Score(masks [][]uint64, holdOuts func(), floor float64) (score float64, folded int, ok bool) {
	nOut := l.Outliers()
	score, _, _, _, folded, ok = l.s.objective(func(gi int) (float64, int) {
		if gi == nOut && holdOuts != nil {
			holdOuts()
		}
		g := &l.groups[gi]
		var x selection
		x.takeMask(g.vals, g.n, masks[gi], l.s.mode)
		return l.s.term(gi, &x, g.n), x.matched
	}, floor, false)
	return score, folded, ok
}

// SubsetBound returns an upper bound on the outlier bound of every sub of
// masks — every choice of sub[g] ⊆ masks[g] for each outlier group, the
// empty ones included — where the outlier bound is the score Score combines
// from the outlier groups alone, λ·outMean, before any hold-out penalty:
// Score declines a conjunction against a floor above it without folding a
// hold-out. So a search that has assembled a prefix conjunction's outlier
// bitsets can skip every conjunction that extends the prefix when this is
// below its floor. Only the outlier masks are read. Where no bound exists
// it returns +Inf: for an aggregate other than SUM and COUNT, and for SUM
// over a non-finite value or sums that could overflow.
//
// For SUM and COUNT, dir·Δ of a removed row set S is the sum over S of a
// per-row term (dir·v, or dir for COUNT), so no S of m rows exceeds the sum
// T_m of the m largest terms under the mask. The per-group bound is
// max(0, max over m of scale(T_m + slack, m)), combined over groups as the
// objective combines the outlier terms with no penalty. slack covers the
// rounding of T_m's sum and of finish's orig − (Sum − selSum) (see
// prepareSubsets), so T_m + slack ≥ the dir·Δ the outlier term folds; IEEE
// division by the same power, addition, /nOut, λ· and subtracting 0 are
// monotone, which carries the inequality to the outlier bound's bits. The
// 0 covers the empty selection and a Δ that finite maps to 0.
func (l *Layout) SubsetBound(masks [][]uint64) float64 {
	if !l.subsets {
		return math.Inf(1)
	}
	sum := 0.0
	for g := range l.Outliers() {
		sum += l.groupSubsetBound(g, masks[g])
	}
	return l.s.combine(sum/float64(l.Outliers()), 0)
}

// SubsetBounded reports whether SubsetBound can return less than +Inf.
func (l *Layout) SubsetBounded() bool { return l.subsets }

// groupSubsetBound is SubsetBound's bound for outlier group gi: it takes
// the terms under the mask in descending order, so their running sum after
// m of them is T_m.
func (l *Layout) groupSubsetBound(gi int, mask []uint64) float64 {
	g := &l.groups[gi]
	left := 0
	for _, w := range mask {
		left += bits.OnesCount64(w)
	}
	best, top := 0.0, 0.0
	for i, m := 0, 0; m < left; i++ {
		t := g.one
		if g.desc != nil {
			p := g.desc[i]
			if mask[p>>6]&(1<<(p&63)) == 0 {
				continue
			}
			t = g.dir * g.vals[p]
		}
		m++
		top += t
		x := top + g.slack
		if x <= 0 && t <= 0 {
			break // no later term is larger, so no later x is positive
		}
		if b := l.s.scale(x, m); b > best {
			best = b
		}
	}
	return best
}

// prepareSubsets readies SubsetBound: each outlier group's term order and
// slack. It reports false, and SubsetBound bounds nothing, for an aggregate
// other than SUM and COUNT, and for SUM when a value is not finite or the
// outlier groups' sums of |v| could overflow. COUNT's values never enter its
// Δ, so COUNT is always bounded.
//
// The slack is a proven bound on rounding. Let u = 2⁻⁵³ and A = Σ|v| over
// the group's n rows (A = n for COUNT). Summing k ≤ n of the values in any
// order errs by at most γ·A, γ = (n−1)u/(1−(n−1)u). finish computes
// Δ = orig − (Sum − selSum): orig = Sum and selSum each err by γ·A, and the
// two subtractions by u·2(1+γ)A and u·(1+γ)(1+2u)A; T_m errs by γ·A. With
// n·u < 1/100 that totals under 2.1·(n+1)·u·A, and slack = 4·(n+2)·u·A,
// computed from a sum of |v| that is itself within γ·A, covers it. (COUNT's
// Δ and T_m are exact integers.) Σ 4A over the outlier groups is finite,
// so no sum SubsetBound or the outlier bound forms can overflow.
func (l *Layout) prepareSubsets() bool {
	_, count := l.s.task.Agg.(aggregate.Count)
	if _, sum := l.s.task.Agg.(aggregate.Sum); !sum && !count {
		return false
	}
	total := 0.0
	for gi := range l.Outliers() {
		g := &l.groups[gi]
		abs := float64(g.n)
		if count || g.vals == nil {
			g.one = g.dir
		} else {
			abs = 0
			for _, v := range g.vals {
				abs += math.Abs(v)
			}
		}
		g.slack = float64(4*(g.n+2)) * 0x1p-53 * abs
		total += 4 * abs
	}
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return false
	}
	for gi := range l.Outliers() {
		if g := &l.groups[gi]; g.one == 0 {
			g.desc = make([]int32, g.n)
			for i := range g.desc {
				g.desc[i] = int32(i)
			}
			slices.SortFunc(g.desc, func(a, b int32) int { return cmp.Compare(g.dir*g.vals[b], g.dir*g.vals[a]) })
		}
	}
	return true
}
