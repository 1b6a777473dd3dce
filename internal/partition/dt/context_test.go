package dt

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits, up to a deadline, for the goroutine count to
// return to baseline: a cancelled build must not leave a goroutine behind.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the build, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPartitionContextCancellation checks that a cancelled build still
// returns a partitioning whose leaves tile the outlier groups (unfinished
// frontier nodes become coarse leaves) and is flagged interrupted.
func TestPartitionContextCancellation(t *testing.T) {
	scorer, space, _ := setup(t, 2, 300, 80, 0.1)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-cancelled context is the extreme case: the build must still
	// return a valid (single coarse leaf per tree) partitioning.
	pt, err := Partition(ctx, scorer, space, Params{DisableSampling: true})
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
	settleGoroutines(t, baseline)
}

// TestRunContextCancellationPrompt checks a mid-build deadline stops the
// expansion quickly.
func TestRunContextCancellationPrompt(t *testing.T) {
	scorer, space, _ := setup(t, 3, 400, 80, 0.1)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	pt, err := Partition(ctx, scorer, space, Params{DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
	if !pt.Interrupted {
		t.Fatal("expired build not marked interrupted")
	}
	cancel()
	settleGoroutines(t, baseline)
}
