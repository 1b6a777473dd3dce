package scorpion

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/obs"
)

// TestDTSweepSelectionMemo drives the §8.3.3 c sweep through one DT
// Session per worker count — a prime at the top of the range, then 56
// shuffled c values — once with the scorer's selection memo and once
// without it. Both sweeps must answer identically: the same predicates with
// bit-equal influence and penalty and the same matched counts. Every
// explanation a run reports must carry what a scorer freshly built at that
// c gives it (freshScorer.check), and the memo must spare the warm runs
// their folds.
func TestDTSweepSelectionMemo(t *testing.T) {
	req := synthRequest(t, "avg", 300)
	req.Algorithm = DT
	rng := rand.New(rand.NewSource(35))
	const steps = 56
	cs := []float64{1}
	for k := 0; k < steps; k++ {
		cs = append(cs, (float64(k)+rng.Float64())/steps)
	}
	rng.Shuffle(steps, func(a, b int) { cs[1+a], cs[1+b] = cs[1+b], cs[1+a] })

	sweep := func(workers int, memo bool) (results []*Result, calls int64) {
		t.Helper()
		defer func(old bool) { memoizeSelections = old }(memoizeSelections)
		memoizeSelections = memo
		sess := NewSession(req)
		for i, c := range cs {
			r := *req
			r.SetC(c)
			r.Workers = workers
			res, err := sess.Explain(context.Background(), &r, 1)
			if err != nil {
				t.Fatal(err)
			}
			if i > 0 && !res.Stats.ReusedPartition {
				t.Fatalf("workers=%d c=%v: the session did not serve the run", workers, c)
			}
			results = append(results, res)
			if i > 1 {
				calls += res.Stats.ScorerCalls
			}
		}
		return results, calls
	}

	fresh := make([]*freshScorer, len(cs))
	for _, workers := range []int{1, 2} {
		with, withCalls := sweep(workers, true)
		without, withoutCalls := sweep(workers, false)
		if withCalls*4 > withoutCalls {
			t.Errorf("workers=%d: warm runs folded %d groups with the memo, %d without; want at most a quarter", workers, withCalls, withoutCalls)
		}
		for i, c := range cs {
			identicalResults(t, with[i], without[i], fmt.Sprintf("workers=%d c=%v, memo on vs off", workers, c))
			if fresh[i] == nil {
				fresh[i] = newFreshScorer(t, atC(req, c))
			}
			fresh[i].check(t, with[i], c)
		}
	}
}

// freshScorer is a scorer built from scratch for one request, over its
// whole table, with the Plan's λ.
type freshScorer struct {
	lambda float64
	s      *influence.Scorer
}

// atC is a copy of req at c.
func atC(req *Request, c float64) *Request {
	r := *req
	r.SetC(c)
	return &r
}

func newFreshScorer(t *testing.T, req *Request) *freshScorer {
	t.Helper()
	p, err := req.Plan()
	if err != nil {
		t.Fatal(err)
	}
	s, _, _, err := buildScorer(p)
	if err != nil {
		t.Fatal(err)
	}
	return &freshScorer{lambda: p.lambda, s: s}
}

// check fails unless every explanation of res carries what the fresh
// scorer gives its predicate: the influence λ·outMean − (1−λ)·penalty from
// PartsMatched's parts, combined here by hand as an independent check, and
// the penalty, both bit for bit; the matched count; and the hold-out flag
// as the penalty's sign.
func (f *freshScorer) check(t *testing.T, res *Result, c float64) {
	t.Helper()
	for i, e := range res.Explanations {
		sc := f.s.PartsMatched(e.Predicate)
		want := f.lambda*sc.OutMean - (1-f.lambda)*sc.HoldPen
		if math.Float64bits(e.Influence) != math.Float64bits(want) || math.Float64bits(e.HoldOutPenalty) != math.Float64bits(sc.HoldPen) ||
			e.MatchedOutlierTuples != sc.Matched || e.InfluencesHoldOut != (e.HoldOutPenalty > 0) {
			t.Fatalf("c=%v rank %d %q: reported (%v, penalty %v, matched %d, flag %v), a fresh scorer gives (%v, penalty %v, matched %d)",
				c, i, e.Where, e.Influence, e.HoldOutPenalty, e.MatchedOutlierTuples, e.InfluencesHoldOut, want, sc.HoldPen, sc.Matched)
		}
	}
}

// TestDTSweepMemoMetrics: scorpion_scorer_memo_* count each run's own memo
// traffic on the session's one scorer — so they sum to the scorer's totals
// — and a warm DT run's re-scores show up as selection-memo hits.
func TestDTSweepMemoMetrics(t *testing.T) {
	req := synthRequest(t, "avg", 150)
	req.Algorithm = DT
	reg := obs.NewRegistry()
	ctx := obs.ContextWithRegistry(context.Background(), reg)
	sess := NewSession(req)
	hitsCounter := reg.Counter("scorpion_scorer_memo_hits_total")
	var coldHits float64
	for i, c := range []float64{0.5, 0.3, 0.1, 0.3} {
		r := *req
		r.SetC(c)
		if _, err := sess.Explain(ctx, &r, 1); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			coldHits = hitsCounter.Value()
		}
	}
	hits, misses := sess.prep.scorer.MemoStats()
	if got := hitsCounter.Value(); got != float64(hits) {
		t.Errorf("scorpion_scorer_memo_hits_total = %v, the scorer counted %d", got, hits)
	}
	if got := reg.Counter("scorpion_scorer_memo_misses_total").Value(); got != float64(misses) {
		t.Errorf("scorpion_scorer_memo_misses_total = %v, the scorer counted %d", got, misses)
	}
	if hitsCounter.Value() <= coldHits {
		t.Errorf("warm runs added no memo hits (%v after the first two runs, %v after four)", coldHits, hitsCounter.Value())
	}
}

// TestSessionSweepSharesLattice drives a DT Session's c sweep with the
// selection memo on and off, so that each run's pieces, merge and re-score
// share one lattice: with the memo off every run folds through it. The two
// sweeps must give the same answers, each scoring as Parts on a fresh
// scorer does.
func TestSessionSweepSharesLattice(t *testing.T) {
	req := synthRequest(t, "avg", 200)
	req.Algorithm = DT
	cs := []float64{0.5, 0.3, 0.45, 0.1, 0.2, 0.05}
	defer func(old bool) { memoizeSelections = old }(memoizeSelections)
	sweep := func(memo bool) (results []*Result, misses int) {
		memoizeSelections = memo
		sess := NewSession(req)
		for _, c := range cs {
			r := *req
			r.SetC(c)
			root := obs.NewSpan("explain")
			res, err := sess.Explain(obs.ContextWithSpan(context.Background(), root), &r, 1)
			if err != nil {
				t.Fatal(err)
			}
			root.End()
			if m := root.Snapshot().Find("merge"); m != nil {
				n, _ := m.Attrs["memo_misses"].(int)
				misses += n
			}
			results = append(results, res)
		}
		return results, misses
	}
	on, onMisses := sweep(true)
	off, offMisses := sweep(false)
	if onMisses == 0 || offMisses == 0 {
		t.Errorf("the merges folded %d boxes through the lattice with the memo on, %d with it off; want some in both", onMisses, offMisses)
	}
	for i, c := range cs {
		identicalResults(t, on[i], off[i], fmt.Sprintf("c=%v, memo on vs off", c))
		fresh := newFreshScorer(t, atC(req, c))
		fresh.check(t, on[i], c)
		fresh.check(t, off[i], c)
	}
}

// TestDTExplainScoresExact: a one-shot DT run, which merges and re-scores
// through its lattice, reports for every explanation the influence and
// penalty Parts gives on a freshly built scorer, on one worker and on two.
func TestDTExplainScoresExact(t *testing.T) {
	req := synthRequest(t, "avg", 200)
	req.Algorithm = DT
	for _, c := range []float64{0.5, 0.2, 0.05} {
		fresh := newFreshScorer(t, atC(req, c))
		for _, workers := range []int{1, 2} {
			r := *req
			r.SetC(c)
			r.Workers = workers
			res, err := ExplainContext(context.Background(), &r)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Explanations) == 0 {
				t.Fatalf("c=%v workers=%d: no explanations", c, workers)
			}
			fresh.check(t, res, c)
		}
	}
}
