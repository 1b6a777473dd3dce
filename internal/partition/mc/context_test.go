package mc

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/scorpiondb/scorpion/internal/partition"
)

// TestParallelCandidatesIdenticalToSerial asserts the MC acceptance
// criterion: a Workers=8 run returns exactly the serial run's candidates —
// same predicates, same order, bit-equal scores.
func TestParallelCandidatesIdenticalToSerial(t *testing.T) {
	scorer, space, _ := setup(t, 2, 200, 80, 0.1)
	serial, err := RunContext(context.Background(), scorer, space, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := RunContext(context.Background(), scorer, space, Params{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par.Best.Pred.Key() != serial.Best.Pred.Key() || par.Best.Score != serial.Best.Score {
			t.Fatalf("workers=%d: best differs: %s %v vs %s %v", workers,
				serial.Best.Pred.Key(), serial.Best.Score, par.Best.Pred.Key(), par.Best.Score)
		}
		if len(par.Candidates) != len(serial.Candidates) {
			t.Fatalf("workers=%d: candidate counts differ: %d vs %d",
				workers, len(serial.Candidates), len(par.Candidates))
		}
		for i := range serial.Candidates {
			if serial.Candidates[i].Pred.Key() != par.Candidates[i].Pred.Key() ||
				serial.Candidates[i].Score != par.Candidates[i].Score {
				t.Fatalf("workers=%d: candidate %d differs", workers, i)
			}
		}
	}
}

// TestRunContextCancellation checks cancelled runs stop promptly and are
// flagged interrupted rather than erroring.
func TestRunContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		scorer, space, _ := setup(t, 3, 300, 80, 0.1)
		baseline := runtime.NumGoroutine()
		// Cancel before the run starts: a deadline mid-run is a race against
		// how fast the search happens to be, and the compressed-provenance
		// encodings made small searches finish inside any sane timeout.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		start := time.Now()
		res, err := RunContext(ctx, scorer, space, Params{}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Interrupted {
			t.Fatalf("workers=%d: cancelled run not marked interrupted", workers)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("workers=%d: cancellation took %s", workers, elapsed)
		}
		// A cancelled run must not leave a worker behind.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines after the run, baseline %d", workers, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestSearcherInterface drives MC through the shared runner.
func TestSearcherInterface(t *testing.T) {
	scorer, space, _ := setup(t, 2, 150, 80, 0.1)
	s := NewSearcher(scorer, space, Params{})
	if s.Name() != "mc" {
		t.Fatalf("Name = %q", s.Name())
	}
	out, err := partition.RunSearch(context.Background(), 4, s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Interrupted || len(out.Candidates) == 0 {
		t.Fatalf("unexpected outcome: %+v", out)
	}
}
