package dt

import (
	"context"
	"testing"
	"time"
)

// TestParallelPartitioningIdenticalToSerial asserts the DT acceptance
// criterion: with sampling enabled (the path that consumes randomness), a
// Workers=8 build produces exactly the serial build's leaves and candidate
// scores, because every node draws from an RNG seeded by its tree position.
func TestParallelPartitioningIdenticalToSerial(t *testing.T) {
	scorer, space, _ := setup(t, 2, 300, 80, 0.1)
	sp, err := PartitionContext(context.Background(), scorer, space, Params{SampleSeed: 7}, 1)
	if err != nil {
		t.Fatal(err)
	}
	serial := sp.Candidates(scorer)
	for _, workers := range []int{2, 8} {
		pp, err := PartitionContext(context.Background(), scorer, space, Params{SampleSeed: 7}, workers)
		if err != nil {
			t.Fatal(err)
		}
		par := pp.Candidates(scorer)
		if len(sp.OutlierLeaves) != len(pp.OutlierLeaves) {
			t.Fatalf("workers=%d: leaf counts differ: %d vs %d",
				workers, len(sp.OutlierLeaves), len(pp.OutlierLeaves))
		}
		for i := range sp.OutlierLeaves {
			if !sp.OutlierLeaves[i].Pred.Equal(pp.OutlierLeaves[i].Pred) {
				t.Fatalf("workers=%d: leaf %d predicate differs: %v vs %v",
					workers, i, sp.OutlierLeaves[i].Pred, pp.OutlierLeaves[i].Pred)
			}
			if sp.OutlierLeaves[i].MeanInfluence != pp.OutlierLeaves[i].MeanInfluence {
				t.Fatalf("workers=%d: leaf %d mean influence differs", workers, i)
			}
		}
		if len(serial) != len(par) {
			t.Fatalf("workers=%d: candidate counts differ: %d vs %d",
				workers, len(serial), len(par))
		}
		for i := range serial {
			if serial[i].Pred.Key() != par[i].Pred.Key() ||
				serial[i].Score != par[i].Score {
				t.Fatalf("workers=%d: candidate %d differs: %s %v vs %s %v", workers, i,
					serial[i].Pred.Key(), serial[i].Score,
					par[i].Pred.Key(), par[i].Score)
			}
		}
	}
}

// TestPartitionContextCancellation checks that a cancelled build still
// returns a partitioning whose leaves tile the outlier groups (unfinished
// frontier nodes become coarse leaves) and is flagged interrupted.
func TestPartitionContextCancellation(t *testing.T) {
	scorer, space, _ := setup(t, 2, 300, 80, 0.1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-cancelled context is the extreme case: the build must still
	// return a valid (single coarse leaf per tree) partitioning.
	pt, err := PartitionContext(ctx, scorer, space, Params{DisableSampling: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Interrupted {
		t.Fatal("cancelled build not marked interrupted")
	}
	if len(pt.OutlierLeaves) == 0 {
		t.Fatal("cancelled build returned no leaves")
	}
	task := scorer.Task()
	for _, g := range task.Outliers {
		g.Rows.ForEach(func(r int) {
			matches := 0
			for _, leaf := range pt.OutlierLeaves {
				if leaf.Pred.Match(task.Table.Data(), r) {
					matches++
				}
			}
			if matches != 1 {
				t.Fatalf("row %d matches %d leaves of the interrupted partitioning", r, matches)
			}
		})
	}
}

// TestRunContextCancellationPrompt checks a mid-build deadline stops the
// expansion quickly.
func TestRunContextCancellationPrompt(t *testing.T) {
	scorer, space, _ := setup(t, 3, 400, 80, 0.1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	pt, err := PartitionContext(ctx, scorer, space, Params{DisableSampling: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
	if !pt.Interrupted {
		t.Fatal("expired build not marked interrupted")
	}
}
