package partition

import (
	"math"
	"sync"
	"sync/atomic"
)

// AnytimeTracker is the interval-aware top-k frontier of an anytime search.
// Its one caller is naive.Params.Estimator, which survives only for the
// benchmark ladder's estimate.* lane.
// Escalated candidates contribute their EXACT scores, so the frontier's kth
// member has a degenerate interval whose lower bound is its score; a
// candidate whose interval upper bound falls below that kth lower bound can
// never displace the top-k and is pruned, and one whose bound falls below
// kth.lower + margin can displace it only by less than the caller's error
// budget — pruning there bounds the per-rank regret by the margin. A
// candidate's refinement terminates early as soon as its interval separates
// from the frontier by the margin in either direction (see
// estimate.Estimator.Score); the tracker records how each one ended.
//
// The tracker is safe for concurrent use, but anytime searchers that need
// worker-count-independent output should read Threshold once per
// deterministic batch rather than per candidate (see the naive package).
type AnytimeTracker struct {
	k      int
	margin float64

	mu     sync.Mutex
	scores []float64 // min-heap of the top-k exact scores seen

	pruned    atomic.Int64
	escalated atomic.Int64
}

// NewAnytimeTracker builds a tracker for a top-k frontier with the given
// prune margin (the caller's epsilon).
func NewAnytimeTracker(k int, margin float64) *AnytimeTracker {
	if k < 1 {
		k = 1
	}
	return &AnytimeTracker{k: k, margin: margin}
}

// Threshold returns the current prune line: the kth best exact score seen
// plus the margin, or -Inf while fewer than k candidates have escalated
// (nothing may be pruned before the frontier is populated).
func (t *AnytimeTracker) Threshold() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.scores) < t.k {
		return math.Inf(-1)
	}
	return t.scores[0] + t.margin
}

// Observe folds one escalated candidate's exact score into the frontier and
// counts the escalation.
func (t *AnytimeTracker) Observe(score float64) {
	t.escalated.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.scores) < t.k {
		t.scores = append(t.scores, score)
		t.up(len(t.scores) - 1)
		return
	}
	if score <= t.scores[0] {
		return
	}
	t.scores[0] = score
	t.down(0)
}

// CountPruned records one pruned candidate.
func (t *AnytimeTracker) CountPruned() { t.pruned.Add(1) }

// Pruned returns how many candidates the frontier pruned.
func (t *AnytimeTracker) Pruned() int64 { return t.pruned.Load() }

// Escalated returns how many candidates escalated to exact scoring.
func (t *AnytimeTracker) Escalated() int64 { return t.escalated.Load() }

func (t *AnytimeTracker) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if t.scores[parent] <= t.scores[i] {
			return
		}
		t.scores[parent], t.scores[i] = t.scores[i], t.scores[parent]
		i = parent
	}
}

func (t *AnytimeTracker) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(t.scores) && t.scores[l] < t.scores[min] {
			min = l
		}
		if r < len(t.scores) && t.scores[r] < t.scores[min] {
			min = r
		}
		if min == i {
			return
		}
		t.scores[i], t.scores[min] = t.scores[min], t.scores[i]
		i = min
	}
}
