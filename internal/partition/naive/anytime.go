package naive

import (
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
)

// anytimeBatch is how many enumerated predicates one anytime batch holds.
// Batches are the determinism unit: the top-k frontier is frozen at each
// batch boundary, estimate/escalate decisions inside a batch fan out over
// the pool against that frozen threshold, and the batch's surviving exact
// scores fold back in enumeration order before the next batch starts — so
// pruning decisions never depend on goroutine scheduling and the output is
// identical for any worker count (the threshold merely lags one batch,
// trading a sliver of pruning for reproducibility).
const anytimeBatch = 1024

// runAnytime is the estimate-then-escalate scoring pipeline behind
// Params.Estimator: NAIVE streams its enumeration through the estimator's
// refinement ladder, pruning candidates whose influence interval upper
// bound falls below the running top-k frontier (plus the epsilon margin)
// and exact-scoring only the escalated remainder. No served request
// reaches it; it survives only for the benchmark ladder's estimate.* lane.
func runAnytime(e *enumerator, res *Result, pool *partition.Pool, params Params, maxCard, maxClauses int) {
	est := params.Estimator
	keeper := topK[predicate.Predicate]{k: params.TopK}
	tracker := partition.NewAnytimeTracker(params.TopK, est.Epsilon())

	type item struct {
		p   predicate.Predicate
		seq int64
	}
	type slot struct {
		ok    bool
		score float64
	}
	parent := obs.SpanFrom(pool.Context())
	var batches int
	var batch []item
	flush := func() {
		if len(batch) == 0 {
			return
		}
		// One span per flushed batch (the determinism unit): the trace
		// shows how the ladder's prune rate evolves as the frontier
		// tightens. The span cap in obs bounds deep enumerations.
		span := parent.Child("naive.batch")
		batches++
		prunedBefore := tracker.Pruned()
		defer func() {
			span.SetAttr("pruned", tracker.Pruned()-prunedBefore)
			span.End()
		}()
		span.SetAttr("size", len(batch))
		thr := tracker.Threshold()
		slots := make([]slot, len(batch))
		_ = pool.ForEach(len(batch), func(i int) {
			score, pruned := est.Score(batch[i].p, thr)
			if pruned {
				tracker.CountPruned()
				return
			}
			slots[i] = slot{ok: true, score: score}
		})
		// Fold in enumeration order; a cancellation mid-batch leaves the
		// unprocessed slots unset, which simply drops them from the
		// (already partial) result.
		for i, s := range slots {
			if !s.ok {
				continue
			}
			tracker.Observe(s.score)
			keeper.offer(s.score, batch[i].seq, batch[i].p)
		}
		if pool.Board() != nil {
			pool.PublishBest(candidates(&keeper))
		}
		batch = batch[:0]
	}
	e.sink = func(c conj, seq int64) {
		batch = append(batch, item{e.predicate(c), seq})
		if len(batch) >= anytimeBatch {
			flush()
		}
	}
	e.run(maxCard, maxClauses)
	flush()
	if batches > 0 {
		parent.SetAttr("naive_batches", batches)
	}
	if pool.Cancelled() {
		e.interrupted = true
	}
	res.TopK = candidates(&keeper)
	res.Pruned = tracker.Pruned()
	res.Escalated = tracker.Escalated()
}
