package shard

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/merge"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// Factory builds the shard-local searcher for one slice: it receives a
// scorer and predicate space scoped to that shard's view and returns the
// partitioner to run there. The top-level explain layer supplies a factory
// that builds the same algorithm (NAIVE/DT/MC, with the request's params)
// it would have run unsharded.
//
// domains carries the GLOBAL continuous-grid extents (the full table's
// outlier extent per space column): grid-based searchers (NAIVE, MC) must
// thread it into their params so every shard enumerates the identical
// clause grid the unsharded search would — the property that lets the
// combiner dedupe and bounding-box-merge shard candidates exactly. It is
// nil for the full-table fallback.
type Factory func(scorer *influence.Scorer, space *predicate.Space, domains map[int]predicate.Domain) (partition.Searcher, error)

// RemoteShard is everything a remote peer needs to reproduce one shard's
// local search: the window, the window-local influence task, the search
// attributes, and the pinned global domains. Index names the shard for
// tagging; Workers is the worker share this shard was granted.
type RemoteShard struct {
	Index   int
	View    *relation.View
	Task    *influence.Task
	Attrs   []string
	Domains map[int]predicate.Domain
	Workers int
}

// RemoteSearcher dispatches one shard search to a remote worker. It
// returns ok = false when the shard should run locally instead — whether
// because no peer is healthy, every attempt failed, or the dispatcher
// does not handle this shard. Errors are the dispatcher's to log; the
// coordinator's contract is only "an outcome, or run it yourself", so a
// degraded fleet answers correctly, just slower. A returned outcome must
// be complete (never partial): its candidates feed the combiner exactly
// as a local search's would.
type RemoteSearcher func(ctx context.Context, rs *RemoteShard) (*partition.Outcome, bool)

// DefaultTopPerShard caps how many candidates each shard contributes to
// the global combine; searcher factories should make their shard searchers
// return at least this many candidates so the combiner has real recall to
// re-score. Shard-local rankings are window estimates — a shard without
// local hold-out rows ranks unpenalized — so the contribution must run
// deeper than the final top-k for the exact re-score to recover the true
// winner.
const DefaultTopPerShard = 64

// mergeTop is how many exactly re-scored candidates feed the global merge
// pass and the refine lattice; the rest still rank in the result, they are
// just not grown or climbed further. The combine stage's exact-scoring
// budget is bounded by DefaultTopPerShard (every deduped shard candidate is
// re-scored once); mergeTop bounds the merge/refine work on top of that.
const mergeTop = 48

// Params tunes the coordinator's combine stage.
type Params struct {
	// GridBins is the continuous bin count of the shard searchers' clause
	// grid (naive/mc Params.Bins). The combiner's refine pass uses it to
	// rebuild the full bin-edge lattice over the global domains, so a
	// hill-climb can reach interior grid edges that no surviving candidate
	// happens to carry. 0 leaves the lattice candidate-derived only (the
	// DT path, whose split points are not on a grid).
	GridBins int
	// Remote, when non-nil, is offered every shard search before the local
	// path runs it: a dispatcher that ships the shard to a worker fleet.
	// The coordinator's post-processing (DefaultTopPerShard cut, global id
	// map-back) and the combiner are identical for both paths, so remote
	// and local shard searches produce identical final results.
	Remote RemoteSearcher
}

// combineMerge tunes the global merge pass. Unsharded NAIVE/MC never grow
// a candidate more than a few steps past a shard boundary; unbounded rounds
// would let the combine stage outspend the searches it combines.
var combineMerge = merge.Params{MaxRounds: 16}

// Coordinator fans one search across horizontal table shards behind the
// partition.Searcher interface, so ExplainContext drives a sharded search
// through the exact same spine (worker pool, cancellation, board) as an
// unsharded one.
type Coordinator struct {
	scorer  *influence.Scorer // full-table scorer: exact re-score + merge
	space   *predicate.Space  // full-table space: global merge adjacency
	factory Factory
	params  Params
	views   []*relation.View
	// domains is the global continuous clause-grid extent per space column
	// (outlier-row min/max on the full table) handed to every shard's
	// factory.
	domains map[int]predicate.Domain

	mu     sync.Mutex
	locals []*influence.Scorer // live shard scorers, for Calls()
}

// NewCoordinator plans a sharded search over the full-table scorer's task:
// the table is sliced into (at most) shards group-aware views. The caller
// should fall back to an unsharded search when NumShards() < 2.
func NewCoordinator(scorer *influence.Scorer, space *predicate.Space, factory Factory, shards int, params Params) *Coordinator {
	task := scorer.Task()
	anchor := task.OutlierUnion()
	views := Plan(task.Table.Data(), anchor, shards)
	domains := make(map[int]predicate.Domain, len(space.Columns()))
	for _, col := range space.Columns() {
		if space.Kind(col) != relation.Continuous {
			continue
		}
		if st := task.Table.FloatStats(col, anchor); st.Count > 0 {
			domains[col] = predicate.Domain{Lo: st.Min, Hi: st.Max}
		}
	}
	return &Coordinator{
		scorer:  scorer,
		space:   space,
		factory: factory,
		params:  params,
		views:   views,
		domains: domains,
	}
}

// NumShards reports how many slices the plan produced.
func (c *Coordinator) NumShards() int { return len(c.views) }

// Name identifies the composite searcher.
func (c *Coordinator) Name() string { return "sharded" }

// Calls sums the scorer calls of every shard-local scorer started so far.
// It is safe to call while the search runs (the progress monitor does), and
// complements the full-table scorer's own counter, which only sees the
// combine stage.
func (c *Coordinator) Calls() int64 {
	c.mu.Lock()
	locals := append([]*influence.Scorer(nil), c.locals...)
	c.mu.Unlock()
	var n int64
	for _, s := range locals {
		n += s.Calls()
	}
	return n
}

// shardResult is one shard search reduced to the combiner's input.
type shardResult struct {
	cands       []partition.Candidate
	work        int64
	interrupted bool
	searched    bool
	err         error
}

// Search runs the shard searches on a split of the pool's worker budget —
// at most Workers() shard searches in flight, each with an equal share of
// the budget — then combines their candidates globally. All shard pools
// derive from the coordinator pool's context, so cancelling the search
// cancels every shard, and each shard publishes into a tagged child of the
// pool's board.
func (c *Coordinator) Search(pool *partition.Pool) (*partition.Outcome, error) {
	k := len(c.views)
	slots := pool.Workers()
	if slots > k {
		slots = k
	}
	if slots < 1 {
		slots = 1
	}
	// Pre-create the per-shard boards in shard order: children are listed
	// in creation order, so observers see Progress.Shards deterministically
	// ordered regardless of goroutine scheduling.
	if board := pool.Board(); board != nil {
		for i := range c.views {
			board.Child(ShardTag(i))
		}
	}

	// Fixed runner slots pulling shard indices: runner j owns a static
	// share of the worker budget (the first Workers%slots runners take the
	// remainder), so the concurrently active worker count is exactly the
	// pool's budget — never over it, and no granted worker idles for the
	// whole stage.
	results := make([]shardResult, k)
	share := pool.Workers() / slots
	rem := pool.Workers() % slots
	next := make(chan int)
	var wg sync.WaitGroup
	for j := 0; j < slots; j++ {
		workers := share
		if j < rem {
			workers++
		}
		if workers < 1 {
			workers = 1
		}
		wg.Add(1)
		go func(workers int) {
			defer wg.Done()
			for i := range next {
				if pool.Cancelled() {
					results[i].interrupted = true
					continue
				}
				results[i] = c.searchShard(i, pool, workers)
			}
		}(workers)
	}
	for i := range c.views {
		next <- i
	}
	close(next)
	wg.Wait()

	var all []partition.Candidate
	var work int64
	interrupted := false
	searched := 0
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, r.err)
		}
		all = append(all, r.cands...)
		work += r.work
		interrupted = interrupted || r.interrupted
		if r.searched {
			searched++
		}
	}
	if searched == 0 && !interrupted {
		// Defensive: the planner anchors on outlier rows, so at least one
		// shard always has outliers — but if every shard were skipped, run
		// the search unsharded rather than answering nothing.
		inner, err := c.factory(c.scorer, c.space, nil)
		if err != nil {
			return nil, err
		}
		return inner.Search(pool)
	}

	cands := c.combine(pool, all)
	return &partition.Outcome{
		Candidates:  cands,
		Work:        work,
		Interrupted: interrupted || pool.Cancelled(),
	}, nil
}

// searchShard builds the shard-local task, scorer, space and searcher for
// view i and runs it with the given worker share.
func (c *Coordinator) searchShard(i int, pool *partition.Pool, workers int) shardResult {
	v := c.views[i]
	task, ok := localTask(c.scorer.Task(), v)
	if !ok {
		return shardResult{} // no outlier rows in this window: nothing to search
	}
	if c.params.Remote != nil {
		rs := &RemoteShard{Index: i, View: v, Task: task, Attrs: c.space.AttrNames(), Domains: c.domains, Workers: workers}
		if outcome, ok := c.params.Remote(pool.Context(), rs); ok {
			span := obs.SpanFrom(pool.Context()).Child("shard.search")
			span.SetAttr("shard", ShardTag(i))
			span.SetAttr("remote", true)
			span.SetAttr("work", outcome.Work)
			span.SetAttr("candidates", len(outcome.Candidates))
			span.End()
			// Remote candidates still publish into the shard's board child so
			// progress snapshots cover a mixed local/remote fleet.
			if board := pool.Board(); board != nil {
				board.Child(ShardTag(i)).Publish(outcome.Candidates)
			}
			return finishShard(outcome)
		}
		// Dispatch declined or failed: fall through to the local search.
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		return shardResult{err: err}
	}
	c.mu.Lock()
	c.locals = append(c.locals, scorer)
	c.mu.Unlock()
	space, err := predicate.NewSpace(v, c.space.AttrNames(), nil)
	if err != nil {
		return shardResult{err: err}
	}
	searcher, err := c.factory(scorer, space, c.domains)
	if err != nil {
		return shardResult{err: err}
	}
	span := obs.SpanFrom(pool.Context()).Child("shard.search")
	span.SetAttr("shard", ShardTag(i))
	span.SetAttr("rows", v.NumRows())
	span.SetAttr("workers", workers)
	shardPool := partition.NewPool(obs.ContextWithSpan(pool.Context(), span), workers).WithBoard(pool.Board().Child(ShardTag(i)))
	outcome, err := searcher.Search(shardPool)
	if err != nil {
		span.End()
		return shardResult{err: err}
	}
	span.SetAttr("work", outcome.Work)
	span.SetAttr("candidates", len(outcome.Candidates))
	span.End()
	return finishShard(outcome)
}

// finishShard applies the coordinator-side post-processing every shard
// outcome gets, local or remote: the DefaultTopPerShard cut. The
// predicates transfer verbatim — views share the base dictionaries, so
// discrete codes mean the same thing, and continuous clauses carry raw
// values — and the combiner re-scores them on the full table.
func finishShard(outcome *partition.Outcome) shardResult {
	cands := outcome.Candidates
	if len(cands) > DefaultTopPerShard {
		cands = cands[:DefaultTopPerShard]
	}
	return shardResult{
		cands:       cands,
		work:        outcome.Work,
		interrupted: outcome.Interrupted,
		searched:    true,
	}
}

// combine dedupes the shards' candidates by predicate clause set, re-scores
// the survivors exactly on the full table (in parallel over the pool), and
// grows the strongest through a global merge pass so adjacent boxes found
// by different shards coalesce into the predicate an unsharded search
// would have scored whole.
func (c *Coordinator) combine(pool *partition.Pool, all []partition.Candidate) []partition.Candidate {
	if len(all) == 0 {
		return nil
	}
	span := obs.SpanFrom(pool.Context()).Child("combine")
	span.SetAttr("in", len(all))
	defer span.End()
	// Dedupe on shard-local estimates first so the exact pass scores each
	// clause set once; shard order makes the tie-breaks deterministic.
	partition.SortByScore(all)
	all = partition.Dedupe(all)

	lambda := c.scorer.Task().Lambda
	_ = pool.ForEach(len(all), func(i int) {
		outMean, holdPen := c.scorer.Parts(all[i].Pred)
		all[i].Score = lambda*outMean - (1-lambda)*holdPen
		all[i].HoldPenalty = holdPen
		all[i].InfluencesHoldOut = holdPen > 0
	})
	if pool.Cancelled() {
		// Partially re-scored: the list mixes inflated shard estimates
		// with exact scores, so neither rank nor publish it — the board
		// keeps its last consistent best, and the caller's final exact
		// re-score (rescoreExact on the partial Outcome) produces the
		// trustworthy ranking.
		return all
	}
	partition.SortByScore(all)
	pool.PublishBest(all)

	head := all
	var tail []partition.Candidate
	if len(all) > mergeTop {
		head, tail = all[:mergeTop], all[mergeTop:]
	}
	merged := merge.New(c.scorer, c.space, combineMerge).WithPool(pool).WithAlgo("shard").Merge(head)
	out := partition.Dedupe(append(merged, tail...))
	partition.SortByScore(out)
	rspan := span.Child("refine")
	rspan.SetAttr("in", len(out))
	out = c.refine(pool, out)
	rspan.End()
	span.SetAttr("out", len(out))
	pool.PublishBest(out)
	return out
}

// refineTop is how many leading candidates the combiner refines.
const refineTop = 4

// refineMaxSteps bounds one candidate's hill-climb.
const refineMaxSteps = 16

// maxLatticePerCol bounds the refine lattice per column: at most this many
// lo (and hi) values are climbed over, so the per-step move count — and
// with it the combine stage's exact-scoring budget — stays bounded even
// when every candidate carries distinct bounds (the DT path).
const maxLatticePerCol = 24

// thinFloats evenly downsamples a sorted slice to at most max values,
// keeping both extremes.
func thinFloats(s []float64, max int) []float64 {
	if len(s) <= max {
		return s
	}
	out := make([]float64, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, s[i*(len(s)-1)/(max-1)])
	}
	return out
}

// thinHis is thinFloats for hi bounds.
func thinHis(s []hiBound, max int) []hiBound {
	if len(s) <= max {
		return s
	}
	out := make([]hiBound, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, s[i*(len(s)-1)/(max-1)])
	}
	return out
}

// refine hill-climbs the top candidates along the clause-boundary lattice
// of the whole candidate pool, under the exact full-table objective. The
// merger can only GROW boxes, but shard-local rankings are hold-out-blind
// (a shard whose window holds no hold-out rows ranks by raw outlier
// influence), so the strongest shard candidates tend to be too WIDE: the
// λ-optimal box is often a sub-range that no shard promoted. Because every
// shard enumerates the same global grid, the pool's clause boundaries ARE
// that grid — stepping a candidate's bounds to neighboring observed
// boundaries and keeping exact improvements recovers the unsharded
// winner without re-enumerating anything. Scores stay exact throughout
// (the full scorer memoizes, so revisited predicates are free).
func (c *Coordinator) refine(pool *partition.Pool, cands []partition.Candidate) []partition.Candidate {
	if len(cands) < 2 {
		return cands
	}
	// Collect the observed boundary lattice per continuous column — from
	// the leading candidates only, and thinned below: on the grid paths
	// every candidate shares ~Bins boundary values, but DT split points
	// are all distinct, and an unbounded lattice would turn the climb into
	// the very full-table scan sharding avoids.
	los := make(map[int][]float64)
	his := make(map[int][]hiBound)
	latticeFrom := cands
	if len(latticeFrom) > mergeTop {
		latticeFrom = latticeFrom[:mergeTop]
	}
	for _, cand := range latticeFrom {
		for _, cl := range cand.Pred.Clauses() {
			if cl.Kind != relation.Continuous {
				continue
			}
			los[cl.Col] = insertSorted(los[cl.Col], cl.Lo)
			his[cl.Col] = insertHi(his[cl.Col], hiBound{cl.Hi, cl.HiInc})
		}
	}
	// Seed the lattice with the shard searchers' own grid over the global
	// domains (or at least the domain extents): greedy shard searches hand
	// over only the bounds they merged TO, so without this a climb could
	// never reach an interior bin edge no candidate happens to carry.
	for col, d := range c.domains {
		los[col] = insertSorted(los[col], d.Lo)
		his[col] = insertHi(his[col], hiBound{d.Hi, true})
		if bins := c.params.GridBins; bins > 1 && d.Hi > d.Lo {
			width := (d.Hi - d.Lo) / float64(bins)
			for i := 1; i < bins; i++ {
				edge := d.Lo + float64(i)*width
				los[col] = insertSorted(los[col], edge)
				his[col] = insertHi(his[col], hiBound{edge, false})
			}
		}
	}
	// Thin over-dense lattices (the DT path's distinct split points) to a
	// bounded number of evenly spaced values; the extremes always stay.
	for col := range los {
		los[col] = thinFloats(los[col], maxLatticePerCol)
	}
	for col := range his {
		his[col] = thinHis(his[col], maxLatticePerCol)
	}
	lambda := c.scorer.Task().Lambda
	exact := func(p predicate.Predicate) float64 {
		return c.scorer.Influence(p)
	}
	top := refineTop
	if top > len(cands) {
		top = len(cands)
	}
	var refined []partition.Candidate
	for i := 0; i < top && !pool.Cancelled(); i++ {
		cur := cands[i]
		curScore := cur.Score
		for step := 0; step < refineMaxSteps; step++ {
			best := curScore
			var bestPred predicate.Predicate
			improved := false
			for _, next := range boundaryMoves(cur.Pred, los, his) {
				if s := exact(next); s > best {
					best, bestPred, improved = s, next, true
				}
			}
			if !improved {
				break
			}
			cur = partition.Candidate{Pred: bestPred, Score: best}
			curScore = best
		}
		if curScore > cands[i].Score {
			outMean, holdPen := c.scorer.Parts(cur.Pred)
			refined = append(refined, partition.Candidate{
				Pred:              cur.Pred,
				Score:             lambda*outMean - (1-lambda)*holdPen,
				HoldPenalty:       holdPen,
				InfluencesHoldOut: holdPen > 0,
			})
		}
	}
	if len(refined) == 0 {
		return cands
	}
	out := partition.Dedupe(append(refined, cands...))
	partition.SortByScore(out)
	return out
}

// hiBound is an upper clause bound with its inclusivity.
type hiBound struct {
	v   float64
	inc bool
}

// boundaryMoves yields every single-bound variant of p on the observed
// lattice: each continuous clause's Lo replaced by each other observed Lo,
// and its Hi by each other observed bound. Trying the whole lattice (not
// just adjacent steps) lets the climb jump across score valleys — a
// single-bin step off a too-wide box often dips before the λ-optimal edge;
// the exact scorer's memo cache makes revisits free.
func boundaryMoves(p predicate.Predicate, los map[int][]float64, his map[int][]hiBound) []predicate.Predicate {
	var out []predicate.Predicate
	clauses := p.Clauses()
	for ci, cl := range clauses {
		if cl.Kind != relation.Continuous {
			continue
		}
		emit := func(nc predicate.Clause) {
			if nc.Lo > nc.Hi || (nc.Lo == nc.Hi && !nc.HiInc) {
				return
			}
			next := make([]predicate.Clause, len(clauses))
			copy(next, clauses)
			next[ci] = nc
			if np, err := predicate.New(next...); err == nil {
				out = append(out, np)
			}
		}
		for _, lo := range los[cl.Col] {
			if lo == cl.Lo {
				continue
			}
			nc := cl
			nc.Lo = lo
			emit(nc)
		}
		for _, h := range his[cl.Col] {
			if h.v == cl.Hi && h.inc == cl.HiInc {
				continue
			}
			nc := cl
			nc.Hi, nc.HiInc = h.v, h.inc
			emit(nc)
		}
	}
	return out
}

// insertSorted inserts v into a sorted slice without duplicates.
func insertSorted(s []float64, v float64) []float64 {
	i := sort.SearchFloat64s(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// insertHi inserts a hi bound into a slice sorted by (value, inclusivity)
// without duplicates.
func insertHi(s []hiBound, b hiBound) []hiBound {
	i := sort.Search(len(s), func(i int) bool {
		if s[i].v != b.v {
			return s[i].v >= b.v
		}
		return s[i].inc || !b.inc // exclusive sorts before inclusive
	})
	if i < len(s) && s[i] == b {
		return s
	}
	s = append(s, hiBound{})
	copy(s[i+1:], s[i:])
	s[i] = b
	return s
}
