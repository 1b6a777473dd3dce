package naive

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// smallSetup builds a small 2D Easy dataset with SUM and the given c.
func smallSetup(t testing.TB, c float64) (*influence.Scorer, *predicate.Space, *synth.Dataset) {
	t.Helper()
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 150, Groups: 4, OutlierGroups: 2, Mu: 80, Seed: 5,
	})
	task, space, err := eval.SynthTask(ds, "sum", 0.5, c)
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	return scorer, space, ds
}

func TestNaiveFindsPlantedCube(t *testing.T) {
	scorer, space, ds := smallSetup(t, 0.1)
	res, err := RunContext(context.Background(), scorer, space, Params{Bins: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Enumerated == 0 {
		t.Fatal("nothing enumerated")
	}
	if res.Best.Score <= 0 {
		t.Fatalf("best score = %v, want positive", res.Best.Score)
	}
	acc := eval.Score(res.Best.Pred, ds.Table, scorer.Task().OutlierUnion(), ds.OuterRows)
	if acc.F1 < 0.5 {
		t.Errorf("F1 = %v (prec %v, rec %v), want ≥ 0.5; pred = %v",
			acc.F1, acc.Precision, acc.Recall, res.Best.Pred)
	}
}

func TestNaiveTraceIsMonotone(t *testing.T) {
	scorer, space, _ := smallSetup(t, 0.1)
	res, err := RunContext(context.Background(), scorer, space, Params{Bins: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Score <= res.Trace[i-1].Score {
			t.Fatalf("trace not strictly improving at %d: %v then %v",
				i, res.Trace[i-1].Score, res.Trace[i].Score)
		}
		if res.Trace[i].Elapsed < res.Trace[i-1].Elapsed {
			t.Fatalf("trace time went backwards at %d", i)
		}
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Score != res.Best.Score {
		t.Errorf("final trace score %v != best %v", last.Score, res.Best.Score)
	}
}

func TestNaiveTopKOrdering(t *testing.T) {
	scorer, space, _ := smallSetup(t, 0.1)
	res, err := RunContext(context.Background(), scorer, space, Params{Bins: 6, TopK: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) == 0 || len(res.TopK) > 5 {
		t.Fatalf("TopK size = %d", len(res.TopK))
	}
	for i := 1; i < len(res.TopK); i++ {
		if res.TopK[i].Score > res.TopK[i-1].Score {
			t.Fatalf("TopK not descending at %d", i)
		}
	}
	if res.TopK[0].Score != res.Best.Score {
		t.Errorf("TopK[0] %v != Best %v", res.TopK[0].Score, res.Best.Score)
	}
}

func TestNaiveDiscreteSubsets(t *testing.T) {
	// Dataset with one discrete attribute whose value "bad" marks outliers.
	scorerTask := buildDiscreteTask(t)
	scorer, err := influence.NewScorer(scorerTask.task)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), scorer, scorerTask.space, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The best predicate must single out the "bad" source.
	got := res.Best.Pred.Format(scorerTask.task.Table.Data())
	if got != "src in ('bad')" {
		t.Errorf("best predicate = %q, want src in ('bad')", got)
	}
}

func TestNaiveMaxClauses(t *testing.T) {
	scorer, space, _ := smallSetup(t, 0.1)
	res, err := RunContext(context.Background(), scorer, space, Params{Bins: 6, MaxClauses: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.TopK {
		if c.Pred.NumClauses() > 1 {
			t.Fatalf("predicate %v exceeds MaxClauses=1", c.Pred)
		}
	}
}

// TestRunParallelMatchesSequential: batches fold in enumeration order
// against floors that trail by a fixed number of batches, so a parallel run
// enumerates, ranks, gates and traces exactly as the serial run does — the
// same trace scores and predicates for every worker count; only Elapsed
// differs.
func TestRunParallelMatchesSequential(t *testing.T) {
	scorer, space, _ := smallSetup(t, 0.1)
	seq, err := RunContext(context.Background(), scorer, space, Params{Bins: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Trace) == 0 {
		t.Fatal("serial run recorded no trace")
	}
	for _, workers := range []int{2, 4} {
		scorerP, spaceP, _ := smallSetup(t, 0.1)
		par, err := RunContext(context.Background(), scorerP, spaceP, Params{Bins: 8}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par.Enumerated != seq.Enumerated || par.Gated != seq.Gated || par.SkippedHoldOuts != seq.SkippedHoldOuts {
			t.Errorf("workers=%d: enumerated/gated/skipped %d/%d/%d, serial %d/%d/%d", workers,
				par.Enumerated, par.Gated, par.SkippedHoldOuts, seq.Enumerated, seq.Gated, seq.SkippedHoldOuts)
		}
		if scorerP.Calls() != scorer.Calls() {
			t.Errorf("workers=%d: %d scorer calls, serial %d", workers, scorerP.Calls(), scorer.Calls())
		}
		identicalCandidates(t, seq.TopK, par.TopK)
		if len(par.Trace) != len(seq.Trace) {
			t.Fatalf("workers=%d: %d trace points, serial %d", workers, len(par.Trace), len(seq.Trace))
		}
		for i, p := range par.Trace {
			if s := seq.Trace[i]; math.Float64bits(p.Score) != math.Float64bits(s.Score) || !p.Pred.Equal(s.Pred) {
				t.Fatalf("workers=%d: trace point %d is %v (%v), serial %v (%v)", workers, i, p.Pred, p.Score, s.Pred, s.Score)
			}
		}
	}
}

// TestRunParallelSingleWorkerDelegates: a one-worker run scores inline on
// the same batch path as any other worker count, trace included.
func TestRunParallelSingleWorkerDelegates(t *testing.T) {
	scorer, space, _ := smallSetup(t, 0.1)
	res, err := RunContext(context.Background(), scorer, space, Params{Bins: 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunContext(context.Background(), scorer, space, Params{Bins: 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 || len(res.Trace) != len(want.Trace) {
		t.Errorf("single-worker run recorded %d trace points, Run %d", len(res.Trace), len(want.Trace))
	}
}

// TestTopKNaNOrderIndependent: a NaN score ranks below every number, so a
// full top-k keeps the same entries, in the same order, whatever order
// they are offered in.
func TestTopKNaNOrderIndependent(t *testing.T) {
	nan := math.NaN()
	scores := []float64{nan, 2, nan, 5, 1, 4}
	want := ""
	for shift := range scores {
		tk := &topK[int]{k: 3}
		for i := range scores {
			j := (i + shift) % len(scores)
			tk.offer(scores[j], int64(j), j)
		}
		sort.Slice(tk.list, func(a, b int) bool { return tk.list[a].outranks(tk.list[b]) })
		got := fmt.Sprint(tk.list)
		if want == "" {
			want = got
			if tk.list[0].val != 3 || tk.list[1].val != 5 || tk.list[2].val != 1 {
				t.Fatalf("top-3 = %v, want entries 3, 5, 1", got)
			}
		} else if got != want {
			t.Fatalf("offer order %d kept %v, order 0 kept %v", shift, got, want)
		}
	}
}

// TestExactGateObservability: the exact path reports what its gates saved
// on the search span of its context (gated, holdouts_skipped,
// subtrees_skipped) and on the registry's
// scorpion_naive_{gated,holdouts_skipped,subtrees_skipped}_total counters,
// equal to the Result's counts and adding up across runs.
func TestExactGateObservability(t *testing.T) {
	reg := obs.NewRegistry()
	var gated, skipped, subtrees int64
	for run := 0; run < 2; run++ {
		span := obs.NewSpan("search")
		ctx := obs.ContextWithRegistry(obs.ContextWithSpan(context.Background(), span), reg)
		scorer, space, _ := smallSetup(t, 0.1)
		res, err := RunContext(ctx, scorer, space, Params{Bins: 8}, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Gated == 0 || res.SkippedHoldOuts < res.Gated || res.SkippedSubtrees == 0 {
			t.Fatalf("gated %d, skipped hold-out scans %d, skipped subtrees %d", res.Gated, res.SkippedHoldOuts, res.SkippedSubtrees)
		}
		gated, skipped, subtrees = gated+res.Gated, skipped+res.SkippedHoldOuts, subtrees+res.SkippedSubtrees
		span.End()
		attrs := span.Snapshot().Attrs
		if attrs["gated"] != res.Gated || attrs["holdouts_skipped"] != res.SkippedHoldOuts || attrs["subtrees_skipped"] != res.SkippedSubtrees {
			t.Fatalf("span attrs %v, want gated %d, holdouts_skipped %d, subtrees_skipped %d",
				attrs, res.Gated, res.SkippedHoldOuts, res.SkippedSubtrees)
		}
	}
	for name, want := range map[string]int64{
		"scorpion_naive_gated_total":            gated,
		"scorpion_naive_holdouts_skipped_total": skipped,
		"scorpion_naive_subtrees_skipped_total": subtrees,
	} {
		if got := reg.Counter(name).Value(); got != float64(want) {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
}
