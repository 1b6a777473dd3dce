package influence

import (
	"math"

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
// A mask is folded from its lowest bit up, which is ascending row order, so
// Influence returns the very bits Scorer.Influence returns for the same
// predicate.
//
// A Layout belongs to the search that built it and dies with it: the Scorer
// keeps no reference. It is read-only after construction, so the workers of
// a parallel search share one.
type Layout struct {
	s      *Scorer
	groups []layoutGroup // the task's outliers, then its hold-outs
	// pow[n] is n^c, the c-knob denominator of a selection of n tuples: a
	// grid search asks for the same few powers once per predicate per group
	// (math.Pow was 40 % of a NAIVE search), and a looked-up power has the
	// bits of a computed one. Selections past the table compute theirs.
	pow []float64
}

// maxPowTable bounds the power table (32 KiB) whatever the group sizes.
const maxPowTable = 4096

type layoutGroup struct {
	rows  *relation.RowSet
	n     int
	vals  []float64 // aggregate value per position; nil for count(*)
	orig  float64
	state aggregate.State
	// dir is the outlier's error vector; hold-outs, which have none, carry 0.
	dir float64
}

// NewLayout lays the scorer's groups out by position.
func (s *Scorer) NewLayout() *Layout {
	l := s.layout()
	maxN := 0
	for i := range l.groups {
		maxN = max(maxN, l.groups[i].n)
	}
	l.pow = make([]float64, min(maxN, maxPowTable)+1)
	for n := range l.pow {
		l.pow[n] = math.Pow(float64(n), s.task.C)
	}
	return l
}

// layout is NewLayout without the power table, for a Lattice, which scores
// through the Scorer.
func (s *Scorer) layout() *Layout {
	l := &Layout{s: s, groups: make([]layoutGroup, 0, len(s.task.Outliers)+len(s.task.HoldOuts))}
	add := func(groups []Group, orig []float64, states []aggregate.State, outlier bool) {
		for i, g := range groups {
			lg := layoutGroup{rows: g.Rows, n: g.Rows.Count(), orig: orig[i], state: states[i]}
			if s.aggVals != nil {
				lg.vals = s.groupValues(g.Rows)
			}
			if outlier {
				lg.dir = float64(g.Direction)
			}
			l.groups = append(l.groups, lg)
		}
	}
	add(s.task.Outliers, s.outOrig, s.outState, true)
	add(s.task.HoldOuts, s.holdOrig, s.holdState, false)
	return l
}

// scale is Scorer.scale with the power looked up.
func (l *Layout) scale(delta float64, n int) float64 {
	if n == 0 || n >= len(l.pow) || l.s.task.C == 0 {
		return l.s.scale(delta, n)
	}
	return delta / l.pow[n]
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
	for i := range dst {
		dst[i] = 0
	}
	pos := 0
	l.groups[g].rows.ForEachRun(func(lo, hi int) {
		for ; lo < hi; lo += 64 {
			n := min(64, hi-lo)
			m := c.MatchMask(l.s.tab, lo, n)
			w, off := pos>>6, uint(pos&63)
			dst[w] |= m << off
			if int(off)+n > 64 {
				dst[w+1] |= m >> (64 - off)
			}
			pos += n
		}
	})
}

// Influence computes the full objective inf(O, H, p, V) of the predicate
// whose matches in group g are masks[g], exactly as Scorer.Influence would,
// without the memo: a grid search scores each predicate once. The Calls
// counter advances by one per group, in one step.
func (l *Layout) Influence(masks [][]uint64) float64 {
	l.Count(len(l.groups))
	score, _, _ := l.HoldOut(l.Bound(masks), math.Inf(-1), masks)
	return score
}

// Bound folds the outlier groups (the first Outliers() masks) and returns
// λ·outMean, an upper bound on the objective since the hold-out penalty is
// never negative: against a floor, HoldOut and the hold-out masks are needed
// only when Bound is not below it. Neither counts calls.
func (l *Layout) Bound(masks [][]uint64) float64 {
	sum := 0.0
	for g := range l.Outliers() {
		d, n := l.delta(g, masks[g])
		sum += l.scale(d, n) * l.groups[g].dir
	}
	return l.s.task.Lambda * (sum / float64(l.Outliers()))
}

// HoldOut completes the objective from bound = Bound(masks), folding the
// hold-outs in order, with the bits Influence gives. Once bound − (1−λ)·
// (running penalty) is below floor it declines (ok false): the penalty only
// grows and IEEE subtraction is monotone, so the objective is below floor
// too. A NaN never declines. folded counts the hold-outs folded.
func (l *Layout) HoldOut(bound, floor float64, masks [][]uint64) (score float64, folded int, ok bool) {
	penalty := 0.0
	for g := l.Outliers(); ; g++ {
		if score = bound - (1-l.s.task.Lambda)*penalty; score < floor || g == len(l.groups) {
			return score, folded, !(score < floor)
		}
		d, n := l.delta(g, masks[g])
		if h := math.Abs(l.scale(d, n)); h > penalty {
			penalty = h
		}
		folded++
	}
}

// delta is Scorer.delta over a position mask instead of a predicate.
func (l *Layout) delta(gi int, mask []uint64) (float64, int) {
	g := &l.groups[gi]
	var x selection
	incremental := l.s.rem != nil
	if !incremental {
		x.rest = make([]float64, 0, g.n)
	}
	for w, m := range mask {
		if m != 0 || !incremental {
			x.take(g.vals, w<<6, min(64, g.n-w<<6), m, incremental)
		}
	}
	return l.s.finish(g.orig, g.state, &x, g.n), x.matched
}
