package naive

// Anytime-path suite (Params.Estimator). No served request reaches this
// path; it survives for the benchmark ladder's estimate.* lane, and while it
// does these tests keep its proof obligations:
//
//  1. A nil estimator — estimate.New declines ε = 0 and unsupported
//     aggregates — is the exact path, candidate for candidate.
//  2. ε > 0 keeps every reported rank within ε of the exact run's, prunes
//     a share of the candidate stream, and reports exact scores.
//  3. Runs are deterministic: run to run and for any worker count (the
//     frontier is frozen at each batch boundary).

import (
	"context"
	"fmt"
	"testing"

	"github.com/scorpiondb/scorpion/internal/estimate"
	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// anytimeSetup builds a fresh scorer over ds for the aggregate at λ 0.5,
// c 0.2, and the estimator estimate.New returns for epsilon (nil when it
// declines).
func anytimeSetup(t *testing.T, ds *synth.Dataset, agg string, epsilon float64) (*influence.Scorer, *predicate.Space, *estimate.Estimator) {
	t.Helper()
	task, space, err := eval.SynthTask(ds, agg, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	return scorer, space, estimate.New(scorer, estimate.Params{Epsilon: epsilon})
}

func TestAnytimeNilEstimatorIsExact(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 150, Groups: 6, OutlierGroups: 2, Mu: 80, Seed: 11,
	})
	for _, tc := range []struct {
		name, agg string
		epsilon   float64
	}{
		{"epsilon=0", "sum", 0},
		{"unsupported_avg", "avg", 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scorer, space, est := anytimeSetup(t, ds, tc.agg, tc.epsilon)
			if est != nil {
				t.Fatalf("estimate.New built an estimator for %s at ε %v", tc.agg, tc.epsilon)
			}
			res, err := RunContext(context.Background(), scorer, space, Params{Bins: 8, Estimator: est}, 1)
			if err != nil {
				t.Fatal(err)
			}
			exactScorer, exactSpace, _ := anytimeSetup(t, ds, tc.agg, 0)
			exact, err := RunContext(context.Background(), exactScorer, exactSpace, Params{Bins: 8}, 1)
			if err != nil {
				t.Fatal(err)
			}
			identicalCandidates(t, exact.TopK, res.TopK)
			if res.Pruned != 0 || res.Escalated != 0 {
				t.Fatalf("exact run reported anytime counters: pruned %d escalated %d", res.Pruned, res.Escalated)
			}
		})
	}
}

func TestAnytimeWithinEpsilonOfExact(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 400, Groups: 8, OutlierGroups: 3, Mu: 80, Seed: 23,
	})
	exactScorer, exactSpace, _ := anytimeSetup(t, ds, "sum", 0)
	exact, err := RunContext(context.Background(), exactScorer, exactSpace, Params{Bins: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.1, 2} {
		t.Run(fmt.Sprintf("epsilon=%v", eps), func(t *testing.T) {
			scorer, space, est := anytimeSetup(t, ds, "sum", eps)
			if est == nil {
				t.Fatalf("estimate.New declined sum at ε %v", eps)
			}
			approx, err := RunContext(context.Background(), scorer, space, Params{Bins: 10, Estimator: est}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if approx.Pruned == 0 {
				t.Fatalf("anytime run pruned nothing (escalated %d)", approx.Escalated)
			}
			if len(approx.TopK) == 0 {
				t.Fatal("anytime run found nothing")
			}
			// Reported scores are exact re-scores, not interval estimates.
			for i, c := range approx.TopK {
				if want := scorer.Influence(c.Pred); c.Score != want {
					t.Fatalf("rank %d score %v, exact influence %v", i, c.Score, want)
				}
			}
			// Per-rank regret: the anytime kth score may trail the exact
			// kth by at most ε.
			n := min(len(approx.TopK), len(exact.TopK))
			for i := 0; i < n; i++ {
				if d := exact.TopK[i].Score - approx.TopK[i].Score; d > eps+1e-9 {
					t.Fatalf("rank %d regret %v exceeds ε %v", i, d, eps)
				}
			}
		})
	}
}

func TestAnytimeDeterministic(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 400, Groups: 8, OutlierGroups: 3, Mu: 80, Seed: 23,
	})
	run := func(t *testing.T, workers int) *Result {
		t.Helper()
		scorer, space, est := anytimeSetup(t, ds, "sum", 0.5)
		res, err := RunContext(context.Background(), scorer, space, Params{Bins: 10, Estimator: est}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(t, 1)
	if serial.Pruned == 0 {
		t.Fatalf("anytime run pruned nothing (escalated %d)", serial.Escalated)
	}
	for _, tc := range []struct {
		name    string
		workers int
	}{
		{"run_to_run", 1},
		{"workers=2", 2},
		{"workers=4", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := run(t, tc.workers)
			identicalCandidates(t, serial.TopK, got.TopK)
			if got.Pruned != serial.Pruned || got.Escalated != serial.Escalated {
				t.Fatalf("counters (%d,%d), serial (%d,%d)",
					got.Pruned, got.Escalated, serial.Pruned, serial.Escalated)
			}
		})
	}
}
