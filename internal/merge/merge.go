// Package merge implements Scorpion's Merger (§4.3) and the first of its
// §6.3 optimizations: candidate predicates are expanded in decreasing score
// order by greedily absorbing adjacent predicates while the influence
// increases. Top-quartile expansion uses only predicates whose score is in
// the top quartile as expansion seeds. Every merge the Merger takes is
// scored exactly, and one that cannot beat its round's best is folded only
// far enough to show that: the paper's second optimization, estimating a
// merged box from its parts' cached tuples, is not implemented (DESIGN.md
// says why).
//
// Merged results can also seed a later run with a lower c value (§8.3.3
// caching experiment) via MergeSeeded.
//
// Expansion works on predicate.Box values, merged, compared and memoized as
// comparable values, and builds a Predicate only for the boxes it keeps.
// Every box is scored through one influence.Lattice on the calling
// goroutine: the search's own (DT's, MC's, the shard combine's), or one the
// merge starts. An expansion from a candidate marked Exact starts from the
// score it carries, unfolded. A predicate a Box cannot hold takes the Predicate path, is
// folded row by row and is counted as a box fallback.
package merge

import (
	"context"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
)

// Params configures the Merger.
type Params struct {
	// TopQuartileOnly restricts expansion seeds to the top quartile of
	// candidate scores (§6.3 optimization 1).
	TopQuartileOnly bool
	// UseApproximation is a no-op; benchmark/ladder.go sets it; delete
	// with B.
	UseApproximation bool
	// MaxRounds caps merge iterations per expansion seed (safety valve;
	// 0 = number of candidates).
	MaxRounds int
}

// adjacencyEps tolerates floating-point gaps when testing adjacency.
const adjacencyEps = 1e-9

// Merger expands and merges candidate predicates.
type Merger struct {
	scorer *influence.Scorer
	space  *predicate.Space
	params Params
	pool   *partition.Pool
	// lat, when set, scores boxes: the search's lattice over space.
	lat *influence.Lattice
	// algo labels the merge's counters.
	algo string
}

// New builds a Merger over the given scorer and search space. It is
// uncancellable unless WithPool is called.
func New(scorer *influence.Scorer, space *predicate.Space, params Params) *Merger {
	return &Merger{
		scorer: scorer,
		space:  space,
		params: params,
		pool:   partition.NewPool(context.Background(), 1),
	}
}

// WithPool attaches the search's pool: expansion stops early (keeping
// results so far) once the pool's context is cancelled, and the merge's
// span and counters land in that context. The merge runs on the calling
// goroutine whatever the pool's worker count. Returns the receiver for
// chaining.
func (m *Merger) WithPool(pool *partition.Pool) *Merger {
	if pool != nil {
		m.pool = pool
	}
	return m
}

// WithLattice scores the merge's boxes through lat, the search's lattice
// over the Merger's space, instead of one the merge starts: by Box, from
// the scorer's selection memo or the lattice's bitsets, without a Predicate
// or its key. Returns the receiver for chaining.
func (m *Merger) WithLattice(lat *influence.Lattice) *Merger {
	m.lat = lat
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
// (also the half-space bitsets the lattice built, the boxes the selection
// memo did not hold, and the attempts Above declined on their outlier
// groups or part way through the hold-outs); its counters land in the
// pool's registry.
func (m *Merger) MergeSeeded(cands []partition.Candidate, seeds []partition.Candidate) []partition.Candidate {
	if len(cands) == 0 && len(seeds) == 0 {
		return nil
	}
	ctx := m.pool.Context()
	_, span := obs.StartSpan(ctx, "merge")
	lat := m.lat
	if lat == nil {
		lat = m.scorer.NewLattice(m.space)
	}
	masks, misses := lat.Stats()
	declined, stops := lat.Declines()
	pool := make([]partition.Candidate, len(cands))
	copy(pool, cands)
	partition.SortByScore(pool)
	r := m.newRun(pool, lat)

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
	partition.SortByScore(out)
	span.SetAttr("attempts", r.attempts)
	span.SetAttr("repeats", r.repeats)
	span.SetAttr("box_fallbacks", r.fallbacks)
	span.SetAttr("rounds", r.rounds)
	m2, miss2 := lat.Stats()
	span.SetAttr("lattice_masks", int(m2-masks))
	span.SetAttr("memo_misses", int(miss2-misses))
	declined2, stops2 := lat.Declines()
	span.SetAttr("declined", int(declined2-declined))
	span.SetAttr("holdout_stops", int(stops2-stops))
	span.End()
	reg := obs.RegistryFrom(ctx)
	reg.Counter("scorpion_merge_attempts_total", "algo", m.algo).Add(float64(r.attempts))
	reg.Counter("scorpion_merge_box_fallbacks_total").Add(float64(r.fallbacks))
	return out
}

// run is one MergeSeeded call: the pool in score order with each member's
// piece and key class (the first pool index with its key), what the
// expansions absorbed (by class), the lattice that scores its boxes, and the
// memo of every box met so far, at the call's c: its exact score, or, for a
// box Above declined, an upper bound on it.
type run struct {
	*Merger
	lat      *influence.Lattice
	cands    []partition.Candidate
	pieces   []*partition.Piece
	class    []int32
	absorbed []bool
	memo     map[predicate.Box]memoScore

	attempts, repeats, fallbacks, rounds int
}

// memoScore is a box's exact score, or (exact false) an upper bound on it.
type memoScore struct {
	v     float64
	exact bool
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
func (m *Merger) newRun(pool []partition.Candidate, lat *influence.Lattice) *run {
	r := &run{
		Merger:   m,
		lat:      lat,
		cands:    pool,
		pieces:   make([]*partition.Piece, len(pool)),
		class:    make([]int32, len(pool)),
		absorbed: make([]bool, len(pool)),
		memo:     make(map[predicate.Box]memoScore),
	}
	var own []partition.Piece
	first := make(map[string]int32, len(pool))
	for i := range pool {
		if r.pieces[i] = pool[i].Piece; !r.pieces[i].Of(m.space) {
			if own == nil {
				own = make([]partition.Piece, len(pool))
			}
			own[i] = partition.NewPiece(m.space, pool[i].Pred)
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
// while the influence increases: each round takes the highest-scoring
// merge, the earliest pool index on ties, when it is strictly above the
// current score. A round scores its merges in pool order against the best
// so far, so a merge that cannot beat it is folded only far enough to show
// that (Lattice.Above). A candidate marked Exact starts from its score: the
// shard combine scored it through this lattice's scorer.
func (r *run) expand(c partition.Candidate) partition.Candidate {
	cur := c
	at := r.shapeOf(cur.Pred)
	var curScore float64
	if c.Exact && at.boxed {
		curScore = c.Score
		r.memo[at.box] = memoScore{c.Score, true}
	} else {
		curScore = r.exact(&at)
	}
	rounds := r.params.MaxRounds
	if rounds <= 0 {
		rounds = len(r.cands) + 1
	}
	for round := 0; round < rounds; round++ {
		if r.pool.Cancelled() {
			break
		}
		r.rounds++
		bestScore, best := curScore, -1
		var bestShape shape
		for i := range r.cands {
			merged, ok := r.join(&at, i)
			if !ok {
				continue
			}
			r.attempts++
			if v, ok := r.above(&merged, bestScore); ok {
				bestScore, best, bestShape = v, i, merged
			}
		}
		if best < 0 {
			break
		}
		r.absorbed[r.class[best]] = true
		at = bestShape
		cur = partition.Candidate{Pred: r.predOf(&at)}
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

// exact returns s's score: from the memo when it holds the exact score,
// else folded whole and kept there when boxed.
func (r *run) exact(s *shape) float64 {
	if s.boxed {
		if m, ok := r.memo[s.box]; ok && m.exact {
			r.repeats++
			return m.v
		}
	}
	v := r.lat.Parts(s.box, s.boxed, s.pred).Value
	if s.boxed {
		r.memo[s.box] = memoScore{v, true}
	}
	return v
}

// above reports whether s's score is above floor, and then the score. A
// box met before is answered from the memo when its exact score is there,
// or its bound is not above floor; one whose bound is above floor is scored
// whole, so no box is folded more than twice. A box met for the first time
// is scored through the lattice's Above (whole for a shape no Box holds).
// The memo keeps its exact score or, when Above declines it, the partial
// score, which bounds it from above. A lattice whose Above scores every box
// whole (over the selection memo, or for a black-box aggregate) scores each
// box once, exactly.
func (r *run) above(s *shape, floor float64) (float64, bool) {
	m, met := r.memo[s.box]
	met = met && s.boxed
	if met && (m.exact || !(m.v > floor)) {
		r.repeats++
		return m.v, m.v > floor
	}
	if met || !r.lat.Partial() {
		v := r.exact(s)
		return v, v > floor
	}
	v, _, ok := r.lat.Above(s.box, s.boxed, s.pred, floor)
	if s.boxed {
		// Without hold-outs a declined box's score is whole too.
		r.memo[s.box] = memoScore{v, ok || len(r.scorer.Task().HoldOuts) == 0}
	}
	return v, ok
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
