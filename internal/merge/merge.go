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
//
// Expansion works on predicate.Box values, merged, compared and memoized as
// comparable values, and builds a Predicate only for the boxes it keeps and
// for exact scoring. A predicate a Box cannot hold takes the Predicate path
// and is counted as a box fallback.
package merge

import (
	"context"
	"math"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/obs"
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
	// MaxRounds caps merge iterations per expansion seed (safety valve;
	// 0 = number of candidates).
	MaxRounds int
}

const (
	// adjacencyEps tolerates floating-point gaps when testing adjacency.
	adjacencyEps = 1e-9
	// exactRescoreTop is how many of the best approximately scored results
	// rescoreTop re-scores exactly before returning.
	exactRescoreTop = 5
)

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
	// algo labels the merge's counters.
	algo string
}

// New builds a Merger over the given scorer and search space. It runs
// serially and uncancellably unless WithPool is called.
func New(scorer *influence.Scorer, space *predicate.Space, params Params) *Merger {
	m := &Merger{
		scorer: scorer,
		space:  space,
		params: params,
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

// WithAlgo names the search the merge serves ("dt", "mc", "shard"): the
// algo label of its counters. Returns the receiver for chaining.
func (m *Merger) WithAlgo(algo string) *Merger {
	m.algo = algo
	return m
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
//
// The call is one "merge" span under the pool's, with its work as attrs
// and the exact re-score of the top as a "rescore_top" child; its
// counters land in the pool's registry.
func (m *Merger) MergeSeeded(cands []partition.Candidate, seeds []partition.Candidate) []partition.Candidate {
	if len(cands) == 0 && len(seeds) == 0 {
		return nil
	}
	ctx := m.pool.Context()
	_, span := obs.StartSpan(ctx, "merge")
	pool := make([]partition.Candidate, len(cands))
	copy(pool, cands)
	partition.SortByScore(pool)
	r := m.newRun(pool)

	expandFrom := len(pool)
	if m.params.TopQuartileOnly && len(pool) >= 4 {
		expandFrom = (len(pool) + 3) / 4
	}
	if len(seeds) > 0 {
		expandFrom = 0
	}
	out := make([]partition.Candidate, 0, len(seeds)+len(pool))
	// Seeds first: they represent already-grown boxes.
	for _, seed := range seeds {
		out = append(out, r.expand(seed))
	}
	for i := 0; i < expandFrom; i++ {
		if !r.absorbed[r.class[i]] {
			out = append(out, r.expand(pool[i]))
		}
	}
	// Non-seed candidates that were never expanded nor absorbed still count
	// as results (the paper returns the full resulting list).
	for i, c := range pool {
		if !r.absorbed[r.class[i]] {
			out = append(out, c)
		}
	}
	out = partition.Dedupe(out)
	rescore := span.Child("rescore_top")
	m.rescoreTop(out)
	rescore.End()
	partition.SortByScore(out)
	span.SetAttr("attempts", r.attempts)
	span.SetAttr("approx_memo_hits", r.hits)
	span.SetAttr("box_fallbacks", r.fallbacks)
	span.SetAttr("rounds", r.rounds)
	span.End()
	reg := obs.RegistryFrom(ctx)
	reg.Counter("scorpion_merge_attempts_total", "algo", m.algo).Add(float64(r.attempts))
	reg.Counter("scorpion_merge_box_fallbacks_total").Add(float64(r.fallbacks))
	return out
}

// run is one MergeSeeded call: the pool in score order with each member's
// piece and key class (the first pool index with its key), what the
// expansions absorbed (by class), and the memo of every box met so far —
// its slot in scores. The pool is fixed for the call, so a memoized score
// is the one a fresh pass would compute. The memo dies with the call: the
// approximation sums in pool order, which the next call's c changes.
type run struct {
	*Merger
	cands    []partition.Candidate
	pieces   []*partition.Piece
	class    []int32
	absorbed []bool
	approx   bool
	memo     map[predicate.Box]int
	scores   []float64
	buf      []attempt // an expansion round's attempts
	todo     []int     // the attempts of buf that need a score

	attempts, hits, fallbacks, rounds int
}

// attempt is one merge an expansion round scores.
type attempt struct {
	idx    int
	merged shape
	slot   int
}

// shape is a box under search: its Box when the Box type can represent
// it, and its predicate, which a box met by merging materializes only when
// something needs it.
type shape struct {
	box            predicate.Box
	boxed, hasPred bool
	pred           predicate.Predicate
}

// newRun indexes the sorted pool. A member without a piece of this space
// (an MC or shard pool, or a DT pool scored over another space) gets one
// built here.
func (m *Merger) newRun(pool []partition.Candidate) *run {
	r := &run{
		Merger:   m,
		cands:    pool,
		pieces:   make([]*partition.Piece, len(pool)),
		class:    make([]int32, len(pool)),
		absorbed: make([]bool, len(pool)),
		approx:   m.params.UseApproximation && m.rem != nil,
		memo:     make(map[predicate.Box]int),
	}
	var own []partition.Piece
	first := make(map[string]int32, len(pool))
	for i := range pool {
		if r.pieces[i] = pool[i].Piece; !r.pieces[i].Of(m.space) {
			if own == nil {
				own = make([]partition.Piece, len(pool))
			}
			own[i] = partition.NewPiece(m.space, m.scorer.Task(), &pool[i])
			r.pieces[i] = &own[i]
		}
		if !r.pieces[i].Boxed {
			r.fallbacks++
		}
		k, ok := first[pool[i].Pred.Key()]
		if !ok {
			k = int32(i)
			first[pool[i].Pred.Key()] = k
		}
		r.class[i] = k
	}
	return r
}

// shapeOf boxes p; a predicate the Box type cannot represent is counted
// and takes the Predicate path.
func (r *run) shapeOf(p predicate.Predicate) shape {
	s := shape{pred: p, hasPred: true}
	if s.box, s.boxed = r.space.Box(p); !s.boxed {
		r.fallbacks++
	}
	return s
}

// predOf returns s's predicate, materializing it from its box once.
func (r *run) predOf(s *shape) predicate.Predicate {
	if !s.hasPred {
		s.pred, s.hasPred = r.space.Predicate(s.box), true
	}
	return s.pred
}

// expand grows one candidate by greedily absorbing adjacent pool members
// while the (estimated) influence increases. Candidate-merge scoring fans
// out over the attached worker pool; the greedy choice — the highest score,
// earliest pool index on ties, strictly above the current score — matches
// the serial scan exactly, so parallel and serial expansions agree.
func (r *run) expand(c partition.Candidate) partition.Candidate {
	cur := c
	at := r.shapeOf(cur.Pred)
	curScore := r.scoreMemo(&at)
	rounds := r.params.MaxRounds
	if rounds <= 0 {
		rounds = len(r.cands) + 1
	}
	for round := 0; round < rounds; round++ {
		if r.pool.Cancelled() {
			break
		}
		r.rounds++
		// Gather the merge candidates cheaply, then score the boxes not met
		// before in parallel.
		r.buf, r.todo = r.buf[:0], r.todo[:0]
		for i := range r.cands {
			if merged, ok := r.join(&at, i); ok {
				r.buf = append(r.buf, attempt{idx: i, merged: merged})
			}
		}
		r.attempts += len(r.buf)
		for k := range r.buf {
			var fresh bool
			if r.buf[k].slot, fresh = r.slot(&r.buf[k].merged); fresh {
				r.todo = append(r.todo, k)
			}
		}
		if err := r.pool.ForEach(len(r.todo), func(k int) {
			a := &r.buf[r.todo[k]]
			r.scores[a.slot] = r.score(&a.merged)
		}); err != nil {
			for _, k := range r.todo {
				if a := &r.buf[k]; a.merged.boxed {
					delete(r.memo, a.merged.box)
				}
			}
			break // cancelled mid-scoring: unscored attempts must not win
		}
		bestScore, best := curScore, -1
		for k := range r.buf {
			if v := r.scores[r.buf[k].slot]; v > bestScore {
				bestScore, best = v, k
			}
		}
		if best < 0 {
			break
		}
		a := &r.buf[best]
		q := &r.cands[a.idx]
		r.absorbed[r.class[a.idx]] = true
		at = a.merged
		cur = partition.Candidate{
			Pred:              r.predOf(&at),
			Score:             bestScore,
			HoldPenalty:       math.Max(cur.HoldPenalty, q.HoldPenalty),
			InfluencesHoldOut: cur.InfluencesHoldOut || q.InfluencesHoldOut,
		}
		curScore = bestScore
	}
	cur.Score = curScore
	return cur
}

// join merges cur with pool member i, or reports false when the Merger
// does not try the pair: the member equals cur, constrains other columns,
// is not adjacent, or adds nothing. Only predicates over the same subspace
// merge (CLIQUE merges same-dimensionality units; merging across attribute
// sets would drop clauses and balloon straight to the full space). A pair
// the Box type cannot hold takes the Predicate path.
func (r *run) join(cur *shape, i int) (shape, bool) {
	if q := r.pieces[i]; cur.boxed && q.Boxed {
		if q.Box == cur.box || !q.Box.SameColumns(cur.box) || !r.space.AdjacentBoxes(cur.box, q.Box, adjacencyEps) {
			return shape{}, false
		}
		b := cur.box.Merge(q.Box)
		return shape{box: b, boxed: true}, b != cur.box
	}
	p, q := r.predOf(cur), r.cands[i].Pred
	if q.Equal(p) || !sameColumns(p, q) || !r.space.Adjacent(p, q, adjacencyEps) {
		return shape{}, false
	}
	merged := p.Merge(q)
	if merged.Equal(p) {
		return shape{}, false
	}
	return r.shapeOf(merged), true
}

// slot returns s's slot in the call's scores and whether it still needs
// its score: a box met before shares the slot (a memo hit), any other
// shape gets a new one.
func (r *run) slot(s *shape) (int, bool) {
	if s.boxed {
		if i, ok := r.memo[s.box]; ok {
			r.hits++
			return i, false
		}
		r.memo[s.box] = len(r.scores)
	}
	r.scores = append(r.scores, 0)
	return len(r.scores) - 1, true
}

// scoreMemo is score through the call's memo.
func (r *run) scoreMemo(s *shape) float64 {
	i, fresh := r.slot(s)
	if fresh {
		r.scores[i] = r.score(s)
	}
	return r.scores[i]
}

// score estimates the influence of a box, via the cached-tuple
// approximation when enabled and possible, else via the exact Scorer.
func (r *run) score(s *shape) float64 {
	if r.approx {
		if v, ok := r.approxInfluence(s); ok {
			return v
		}
	}
	return r.scorer.Influence(r.predOf(s))
}

// approxInfluence estimates inf(O, H, p*, V) from the pool's pieces alone
// (§6.3). Returns false when the pool lacks the needed statistics.
//
// One pass over the pool, in pool order, computes each member's overlap
// with p* once and folds it into every outlier group's estimate and into
// the hold-out penalty. Each group still sees its updates in pool order,
// so the bits are those of a pass per group.
func (r *run) approxInfluence(pstar *shape) (float64, bool) {
	task := r.scorer.Task()
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
	for i, q := range r.pieces {
		var frac float64
		if q.Boxed && pstar.boxed {
			frac = r.space.Overlap(q.Box, pstar.box)
		} else {
			frac = overlapFraction(r.space, r.cands[i].Pred, r.predOf(pstar))
		}
		if pen := r.cands[i].HoldPenalty; frac > 0 && pen > penalty {
			penalty = pen
		}
		if frac <= 0 || len(q.Cards) != nGroups {
			continue
		}
		for gi, card := range q.Cards {
			if card <= 0 {
				continue
			}
			sawStats = true
			n := card * frac
			removed[gi] = r.rem.Update(removed[gi], scaleState(q.Rows[gi], n))
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
		orig := r.scorer.OutlierResult(gi)
		updated := r.rem.Recover(r.rem.Remove(r.scorer.OutlierState(gi), removed[gi]))
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

// sameColumns reports whether two predicates constrain identical columns
// (the Predicate path's SameColumns).
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

// overlapFraction is Space.Overlap on predicates, for the pairs the Box
// type cannot hold: it estimates the fraction of q's box that lies inside p*,
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
// exact Scorer values so the returned ranking is trustworthy. It scores
// through Scorer.Parts: the score memo Influence fills would only keep
// boxes no later call reads. On a scorer that keeps its boxes' selections
// (a Session's DT path) Parts reads them, so a box met in an earlier run is
// re-scored without testing a row.
func (m *Merger) rescoreTop(cands []partition.Candidate) {
	if !m.params.UseApproximation {
		return
	}
	partition.SortByScore(cands)
	lambda := m.scorer.Task().Lambda
	for i := range min(exactRescoreTop, len(cands)) {
		out, hold := m.scorer.Parts(cands[i].Pred)
		cands[i].Score = lambda*out - (1-lambda)*hold
	}
}
