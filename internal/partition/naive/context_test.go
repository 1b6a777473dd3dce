package naive

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
)

// identicalCandidates fails unless the two lists agree exactly: same
// predicates in the same order with bit-identical scores.
func identicalCandidates(t *testing.T, serial, parallel []partition.Candidate) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("candidate counts differ: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Pred.Key() != parallel[i].Pred.Key() {
			t.Fatalf("candidate %d predicate differs: serial %s, parallel %s",
				i, serial[i].Pred.Key(), parallel[i].Pred.Key())
		}
		if serial[i].Score != parallel[i].Score {
			t.Fatalf("candidate %d score differs: serial %v, parallel %v",
				i, serial[i].Score, parallel[i].Score)
		}
	}
}

// TestParallelTopKIdenticalToSerial asserts the acceptance criterion for
// NAIVE: the Workers=8 top-k is byte-identical to the serial run's — same
// predicates, same order, bit-equal scores.
func TestParallelTopKIdenticalToSerial(t *testing.T) {
	scorer, space, _ := smallSetup(t, 0.1)
	serial, err := RunContext(context.Background(), scorer, space, Params{Bins: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		scorerP, spaceP, _ := smallSetup(t, 0.1)
		par, err := RunContext(context.Background(), scorerP, spaceP, Params{Bins: 8}, workers)
		if err != nil {
			t.Fatal(err)
		}
		identicalCandidates(t, serial.TopK, par.TopK)
		if par.Interrupted {
			t.Errorf("workers=%d: uncancelled run marked interrupted", workers)
		}
	}
}

// TestRunContextCancellation checks a cancelled context stops the search
// promptly with the best-so-far results flagged interrupted. The context
// is cancelled once the search has scored a batch's worth of predicates, a
// small share of the whole grid, which it cannot finish without passing:
// the cancel lands mid-search however fast the search runs.
func TestRunContextCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		scorer, space, _ := smallSetup(t, 0.1)
		ctx, cancel := cancelAfterCalls(scorer, batchSize)
		start := time.Now()
		res, err := RunContext(ctx, scorer, space, Params{Bins: 15}, workers)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !res.Interrupted {
			t.Fatalf("workers=%d: cancelled run not marked interrupted", workers)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("workers=%d: cancellation took %s", workers, elapsed)
		}
	}
}

// callsContext is a context its own Done cancels once the scorer has made
// calls calls, so the search's own cancellation checks observe the cancel:
// no goroutine has to be scheduled in time to deliver it.
type callsContext struct {
	context.Context
	cancel context.CancelFunc
	scorer *influence.Scorer
	calls  int64
}

func cancelAfterCalls(scorer *influence.Scorer, calls int64) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	return &callsContext{Context: ctx, cancel: cancel, scorer: scorer, calls: calls}, cancel
}

func (c *callsContext) Done() <-chan struct{} {
	if c.scorer.Calls() >= c.calls {
		c.cancel()
	}
	return c.Context.Done()
}

// TestRunContextCancelMidSearch cancels a long search once it has scored
// some batches, so that batches are in flight and the producer may be
// waiting on the lagged floor when the pool starts dropping them: the run
// must still return promptly, flagged interrupted, and leave no goroutine
// behind.
func TestRunContextCancelMidSearch(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		baseline := runtime.NumGoroutine()
		scorer, space, _ := smallSetup(t, 0.1)
		ctx, cancel := context.WithCancel(context.Background())
		watched := make(chan struct{})
		go func() {
			defer close(watched)
			for scorer.Calls() < 20*batchSize {
				if ctx.Err() != nil {
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
			cancel()
		}()
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := RunContext(ctx, scorer, space, Params{Bins: 40}, workers)
			done <- outcome{res, err}
		}()
		var out outcome
		select {
		case out = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: the search did not return after cancellation", workers)
		}
		cancel()
		<-watched
		if out.err != nil {
			t.Fatalf("workers=%d: %v", workers, out.err)
		}
		if !out.res.Interrupted {
			t.Fatalf("workers=%d: cancelled run not marked interrupted (enumerated %d)", workers, out.res.Enumerated)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines, baseline %d", workers, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestSearcherInterface drives NAIVE through the shared runner.
func TestSearcherInterface(t *testing.T) {
	scorer, space, _ := smallSetup(t, 0.1)
	s := NewSearcher(scorer, space, Params{Bins: 8})
	if s.Name() != "naive" {
		t.Fatalf("Name = %q", s.Name())
	}
	out, err := partition.RunSearch(context.Background(), 4, s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Interrupted || len(out.Candidates) == 0 || out.Work == 0 {
		t.Fatalf("unexpected outcome: %+v", out)
	}
}
