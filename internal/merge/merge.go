// Package merge implements Scorpion's Merger (§4.3) and its optimizations
// (§6.3): candidate predicates are expanded in decreasing score order by
// greedily absorbing adjacent predicates while the (estimated) influence
// increases.
//
// Two optimizations from the paper:
//
//  1. Top-quartile expansion: only predicates whose score is in the top
//     quartile are used as expansion seeds.
//  2. Cached-tuple approximation: for incrementally removable aggregates,
//     a merged predicate's influence is estimated from each input
//     partition's cardinality and its cached representative tuple, scaled
//     by box-overlap volume fractions — no Scorer calls. We generalize the
//     paper's pairwise n_p formula to the full disjoint partition list: the
//     estimated contribution of leaf q to merged box p* is
//     N_q · Vol(q ∩ p*)/Vol(q), which is identical under the paper's
//     uniform-density assumption and has no special overlap cases.
//
// Merged results can also seed a later run with a lower c value (§8.3.3
// caching experiment) via MergeSeeded.
package merge

import (
	"context"
	"math"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// Params configures the Merger.
type Params struct {
	// TopQuartileOnly restricts expansion seeds to the top quartile of
	// candidate scores (§6.3 optimization 1).
	TopQuartileOnly bool
	// UseApproximation enables the cached-tuple influence approximation
	// (§6.3 optimization 2). It requires an incrementally removable
	// aggregate and DT-style candidates (GroupCards/CachedRows populated);
	// otherwise the Merger silently falls back to exact scoring.
	UseApproximation bool
	// AdjacencyEps tolerates floating-point gaps when testing adjacency.
	AdjacencyEps float64
	// MaxRounds caps merge iterations per expansion seed (safety valve;
	// 0 = number of candidates).
	MaxRounds int
	// ExactRescoreTop re-scores the best k merged results with the exact
	// Scorer before returning (default 5). Only matters with approximation.
	ExactRescoreTop int
}

func (p Params) withDefaults() Params {
	if p.AdjacencyEps <= 0 {
		p.AdjacencyEps = 1e-9
	}
	if p.ExactRescoreTop <= 0 {
		p.ExactRescoreTop = 5
	}
	return p
}

// Merger expands and merges candidate predicates.
type Merger struct {
	scorer *influence.Scorer
	space  *predicate.Space
	params Params
	pool   *partition.Pool
	// rem is the aggregate's removable interface, nil for a black box; the
	// approximation reads the outlier groups' states and original values
	// off the scorer.
	rem aggregate.Removable
}

// New builds a Merger over the given scorer and search space. It runs
// serially and uncancellably unless WithPool is called.
func New(scorer *influence.Scorer, space *predicate.Space, params Params) *Merger {
	m := &Merger{
		scorer: scorer,
		space:  space,
		params: params.withDefaults(),
		pool:   partition.NewPool(context.Background(), 1),
	}
	m.rem, _ = scorer.Task().Agg.(aggregate.Removable)
	return m
}

// WithPool attaches a worker pool: merge-candidate scoring fans out over
// its workers, and expansion stops early (keeping results so far) once the
// pool's context is cancelled. The merged output is identical for any
// worker count. Returns the receiver for chaining.
func (m *Merger) WithPool(pool *partition.Pool) *Merger {
	if pool != nil {
		m.pool = pool
	}
	return m
}

// rowState returns state({value of row}).
func (m *Merger) rowState(row int) aggregate.State {
	task := m.scorer.Task()
	v := 0.0
	if task.AggCol >= 0 {
		v = task.Table.Floats(task.AggCol)[row]
	}
	var st aggregate.State
	st.Add(v)
	return st
}

// Merge expands the candidates and returns the deduplicated, descending
// ranked result list.
func (m *Merger) Merge(cands []partition.Candidate) []partition.Candidate {
	return m.MergeSeeded(cands, nil)
}

// MergeSeeded is Merge with expansion seeds — the merged results of a
// previous run with a higher c value (§8.3.3: "Scorpion can initialize the
// merging process to the results of any prior execution with a higher c").
// When seeds are given they REPLACE the usual expansion frontier: only the
// seeds grow (each from where the previous run stopped), while the pool
// still supplies merge partners. This is what makes the cached c sweep
// cheap.
func (m *Merger) MergeSeeded(cands []partition.Candidate, seeds []partition.Candidate) []partition.Candidate {
	if len(cands) == 0 && len(seeds) == 0 {
		return nil
	}
	pool := make([]partition.Candidate, len(cands))
	copy(pool, cands)
	partition.SortByScore(pool)

	expandFrom := pool
	if m.params.TopQuartileOnly && len(pool) >= 4 {
		expandFrom = pool[:(len(pool)+3)/4]
	}
	if len(seeds) > 0 {
		expandFrom = nil
	}
	absorbed := make(map[string]bool)

	var out []partition.Candidate
	// Seeds first: they represent already-grown boxes.
	for _, seed := range seeds {
		out = append(out, m.expand(seed, pool, absorbed))
	}
	for _, c := range expandFrom {
		if absorbed[c.Pred.Key()] {
			continue
		}
		out = append(out, m.expand(c, pool, absorbed))
	}
	// Non-seed candidates that were never expanded nor absorbed still count
	// as results (the paper returns the full resulting list).
	for _, c := range pool {
		if !absorbed[c.Pred.Key()] {
			out = append(out, c)
		}
	}
	out = partition.Dedupe(out)
	m.rescoreTop(out)
	partition.SortByScore(out)
	return out
}

// expand grows one candidate by greedily absorbing adjacent pool members
// while the (estimated) influence increases. Candidate-merge scoring fans
// out over the attached worker pool; the greedy choice — the highest score,
// earliest pool index on ties, strictly above the current score — matches
// the serial scan exactly, so parallel and serial expansions agree.
func (m *Merger) expand(c partition.Candidate, pool []partition.Candidate, absorbed map[string]bool) partition.Candidate {
	cur := c
	curScore := m.score(cur.Pred, pool)
	rounds := m.params.MaxRounds
	if rounds <= 0 {
		rounds = len(pool) + 1
	}
	for r := 0; r < rounds; r++ {
		if m.pool.Cancelled() {
			break
		}
		// Gather the merge candidates cheaply, then score them in parallel.
		type attempt struct {
			idx    int
			merged predicate.Predicate
			score  float64
		}
		var attempts []attempt
		for i, q := range pool {
			if q.Pred.Equal(cur.Pred) {
				continue
			}
			// Only predicates over the same subspace merge (CLIQUE merges
			// same-dimensionality units; merging across attribute sets
			// would drop clauses and balloon straight to the full space).
			if !sameColumns(cur.Pred, q.Pred) {
				continue
			}
			if !m.space.Adjacent(cur.Pred, q.Pred, m.params.AdjacencyEps) {
				continue
			}
			merged := cur.Pred.Merge(q.Pred)
			if merged.Equal(cur.Pred) {
				continue
			}
			attempts = append(attempts, attempt{idx: i, merged: merged})
		}
		if err := m.pool.ForEach(len(attempts), func(i int) {
			attempts[i].score = m.score(attempts[i].merged, pool)
		}); err != nil {
			break // cancelled mid-scoring: unscored attempts must not win
		}
		bestScore := curScore
		var bestPred predicate.Predicate
		bestIdx := -1
		for _, a := range attempts {
			if a.score > bestScore {
				bestScore, bestPred, bestIdx = a.score, a.merged, a.idx
			}
		}
		if bestIdx < 0 {
			break
		}
		absorbed[pool[bestIdx].Pred.Key()] = true
		cur = partition.Candidate{
			Pred:        bestPred,
			Score:       bestScore,
			HoldPenalty: math.Max(cur.HoldPenalty, pool[bestIdx].HoldPenalty),
			InfluencesHoldOut: cur.InfluencesHoldOut ||
				pool[bestIdx].InfluencesHoldOut,
		}
		curScore = bestScore
	}
	cur.Score = curScore
	return cur
}

// score estimates the influence of a predicate, via the cached-tuple
// approximation when enabled and possible, else via the exact Scorer.
func (m *Merger) score(p predicate.Predicate, pool []partition.Candidate) float64 {
	if m.params.UseApproximation && m.rem != nil {
		if v, ok := m.approxInfluence(p, pool); ok {
			return v
		}
	}
	return m.scorer.Influence(p)
}

// approxInfluence estimates inf(O, H, p*, V) from the partition statistics
// alone (§6.3). Returns false when the pool lacks the needed statistics.
//
// One pass over the pool computes each member's overlap with p* once and
// folds it into every outlier group's estimate and into the hold-out
// penalty. Each group still sees its updates in pool order, so the bits are
// those of a pass per group.
func (m *Merger) approxInfluence(pstar predicate.Predicate, pool []partition.Candidate) (float64, bool) {
	task := m.scorer.Task()
	nGroups := len(task.Outliers)
	// The estimated state and size of p*(g) per outlier group, accumulated
	// from cached tuples; on the stack for the usual handful of outliers.
	var stateBuf [8]aggregate.State
	var nBuf [8]float64
	var removed []aggregate.State
	var removedN []float64
	if nGroups <= len(stateBuf) {
		removed, removedN = stateBuf[:nGroups], nBuf[:nGroups]
	} else {
		removed, removedN = make([]aggregate.State, nGroups), make([]float64, nGroups)
	}
	sawStats := false
	// Hold-out penalty: reuse the worst stored leaf penalty among overlapping
	// partitions (a merged predicate's max_h penalty is at least its parts').
	penalty := 0.0
	for i := range pool {
		q := &pool[i]
		frac := overlapFraction(m.space, q.Pred, pstar)
		if frac > 0 && q.HoldPenalty > penalty {
			penalty = q.HoldPenalty
		}
		if len(q.GroupCards) != nGroups || len(q.CachedRows) != nGroups || frac <= 0 {
			continue
		}
		for gi := range removed {
			row := q.CachedRows[gi]
			if row < 0 || q.GroupCards[gi] <= 0 {
				continue
			}
			sawStats = true
			n := q.GroupCards[gi] * frac
			removed[gi] = m.rem.Update(removed[gi], scaleState(m.rowState(row), n))
			removedN[gi] += n
		}
	}
	if !sawStats {
		return 0, false
	}

	total := 0.0
	for gi := range removed {
		if removedN[gi] <= 0 {
			continue
		}
		orig := m.scorer.OutlierResult(gi)
		updated := m.rem.Recover(m.rem.Remove(m.scorer.OutlierState(gi), removed[gi]))
		delta := orig - updated
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			continue
		}
		inf := delta
		if task.C != 0 {
			inf = delta / math.Pow(removedN[gi], task.C)
		}
		total += inf * float64(task.Outliers[gi].Direction)
	}
	outPart := total / float64(nGroups)
	return task.Lambda*outPart - (1-task.Lambda)*penalty, true
}

// sameColumns reports whether two predicates constrain identical columns.
func sameColumns(a, b predicate.Predicate) bool {
	if a.NumClauses() != b.NumClauses() {
		return false
	}
	ac, bc := a.Clauses(), b.Clauses()
	for i := range ac {
		if ac[i].Col != bc[i].Col {
			return false
		}
	}
	return true
}

// scaleState multiplies a state by a (possibly fractional) tuple count.
// The state (sum, sum of squares, count) is linear in its inputs, so
// componentwise scaling equals update-ing n copies.
func scaleState(s aggregate.State, n float64) aggregate.State {
	return aggregate.State{Sum: s.Sum * n, SumSq: s.SumSq * n, N: s.N * n}
}

// overlapFraction estimates the fraction of q's box that lies inside p*,
// assuming uniform density: the product over attributes of the fractional
// overlap of q's clause with p*'s clause (1 when p* leaves the attribute
// unconstrained). Both clause lists are sorted by column, so it walks them
// by index, clause by pointer; the factors multiply in a fixed order — the
// columns q constrains, then those only p* constrains — each ascending.
func overlapFraction(space *predicate.Space, q, pstar predicate.Predicate) float64 {
	frac := 1.0
	qcs, pcs := q.Clauses(), pstar.Clauses()
	j := 0
	for i := range qcs {
		qc := &qcs[i]
		for j < len(pcs) && pcs[j].Col < qc.Col {
			j++
		}
		if j == len(pcs) || pcs[j].Col != qc.Col {
			continue
		}
		pc := &pcs[j]
		if qc.Kind == relation.Continuous {
			width := qc.Hi - qc.Lo
			lo := math.Max(qc.Lo, pc.Lo)
			hi := math.Min(qc.Hi, pc.Hi)
			if width <= 0 {
				// Point range: inside or out.
				if pc.Lo <= qc.Lo && qc.Lo <= pc.Hi {
					continue
				}
				return 0
			}
			if hi <= lo {
				return 0
			}
			frac *= (hi - lo) / width
		} else {
			if len(qc.Values) == 0 {
				return 0
			}
			common := 0
			a, b := 0, 0
			for a < len(qc.Values) && b < len(pc.Values) {
				switch {
				case qc.Values[a] < pc.Values[b]:
					a++
				case qc.Values[a] > pc.Values[b]:
					b++
				default:
					common++
					a++
					b++
				}
			}
			if common == 0 {
				return 0
			}
			frac *= float64(common) / float64(len(qc.Values))
		}
	}
	// Attributes constrained by p* but not by q: q spans the whole domain
	// there, so the overlap shrinks by p*'s coverage of the domain.
	i := 0
	for j := range pcs {
		pc := &pcs[j]
		for i < len(qcs) && qcs[i].Col < pc.Col {
			i++
		}
		if i < len(qcs) && qcs[i].Col == pc.Col {
			continue
		}
		d, ok := space.Domain(pc.Col)
		if !ok {
			continue
		}
		if pc.Kind == relation.Continuous {
			width := d.Hi - d.Lo
			if width <= 0 {
				continue
			}
			lo := math.Max(pc.Lo, d.Lo)
			hi := math.Min(pc.Hi, d.Hi)
			if hi <= lo {
				return 0
			}
			frac *= (hi - lo) / width
		} else {
			if d.Card <= 0 {
				continue
			}
			frac *= float64(len(pc.Values)) / float64(d.Card)
		}
	}
	return frac
}

// rescoreTop replaces the approximate scores of the best candidates with
// exact Scorer values so the returned ranking is trustworthy. It goes
// through Scorer.Influence, so on a scorer that keeps its boxes' selections
// (a Session's DT path) a box met in an earlier run is re-scored without
// testing a row.
func (m *Merger) rescoreTop(cands []partition.Candidate) {
	if !m.params.UseApproximation {
		return
	}
	partition.SortByScore(cands)
	k := m.params.ExactRescoreTop
	if k > len(cands) {
		k = len(cands)
	}
	for i := 0; i < k; i++ {
		cands[i].Score = m.scorer.Influence(cands[i].Pred)
	}
}
