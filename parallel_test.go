package scorpion

// Tests for the context-aware parallel search spine: Workers must not
// change any result, and cancellation must surface promptly through
// ExplainContext with best-so-far partial results.

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scorpiondb/scorpion/internal/synth"
)

// synthRequest builds an Explain request over a planted-cube synthetic
// dataset. agg selects the aggregate (and thereby the Auto algorithm: avg →
// DT, sum → MC, median → NAIVE).
func synthRequest(t testing.TB, agg string, perGroup int) *Request {
	t.Helper()
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: perGroup, Groups: 5, OutlierGroups: 2, Mu: 80, Seed: 11,
	})
	return &Request{
		Table:            ds.Table,
		SQL:              "SELECT " + agg + "(v), g FROM synth GROUP BY g",
		Outliers:         ds.OutlierKeys,
		AllOthersHoldOut: true,
		Direction:        TooHigh,
		Attributes:       ds.DimNames(),
	}
}

// identicalResults fails unless both results carry exactly the same ranked
// explanations: predicate, bit-equal influence and hold-out penalty,
// matched counts.
func identicalResults(t *testing.T, serial, parallel *Result, label string) {
	t.Helper()
	if len(serial.Explanations) == 0 {
		t.Fatalf("%s: serial run found no explanations", label)
	}
	if len(serial.Explanations) != len(parallel.Explanations) {
		t.Fatalf("%s: explanation counts differ: serial %d, parallel %d",
			label, len(serial.Explanations), len(parallel.Explanations))
	}
	for i := range serial.Explanations {
		s, p := serial.Explanations[i], parallel.Explanations[i]
		if s.Where != p.Where {
			t.Fatalf("%s: explanation %d predicate differs:\nserial   %s\nparallel %s",
				label, i, s.Where, p.Where)
		}
		if math.Float64bits(s.Influence) != math.Float64bits(p.Influence) {
			t.Fatalf("%s: explanation %d influence differs: %v vs %v", label, i, s.Influence, p.Influence)
		}
		if s.MatchedOutlierTuples != p.MatchedOutlierTuples {
			t.Fatalf("%s: explanation %d matched count differs", label, i)
		}
		if math.Float64bits(s.HoldOutPenalty) != math.Float64bits(p.HoldOutPenalty) {
			t.Fatalf("%s: explanation %d hold-out penalty differs", label, i)
		}
	}
}

// TestWorkersDeterministicAcrossAlgorithms asserts the acceptance
// criterion at the public API: for each algorithm, Workers: 8 returns the
// same top-k predicates and scores as the serial run.
func TestWorkersDeterministicAcrossAlgorithms(t *testing.T) {
	cases := []struct {
		algo Algorithm
		agg  string
	}{
		{Naive, "median"}, // black-box path
		{DT, "avg"},
		{MC, "sum"},
	}
	for _, tc := range cases {
		t.Run(tc.algo.String(), func(t *testing.T) {
			req := synthRequest(t, tc.agg, 150)
			req.Algorithm = tc.algo
			if tc.algo == Naive {
				req.Bins = 6
			}
			serial, err := Explain(req)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Stats.Algorithm != tc.algo {
				t.Fatalf("serial ran %v, want %v", serial.Stats.Algorithm, tc.algo)
			}
			reqP := *req
			reqP.Workers = 8
			parallel, err := Explain(&reqP)
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, serial, parallel, tc.algo.String())
		})
	}
}

// settleGoroutines waits, up to a deadline, for the goroutine count to
// return to baseline: a cancelled search must not leave a worker behind.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the search, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// goroutineWatch is a context that records the most goroutines alive at
// any of its polls: a search that fans out polls it from its workers.
type goroutineWatch struct {
	context.Context
	most atomic.Int64
}

func (w *goroutineWatch) Done() <-chan struct{} {
	for n := int64(runtime.NumGoroutine()); ; {
		if old := w.most.Load(); n <= old || w.most.CompareAndSwap(old, n) {
			break
		}
	}
	return w.Context.Done()
}

func (w *goroutineWatch) Err() error {
	w.Done()
	return w.Context.Err()
}

// TestDTStartsNoGoroutine: a DT search asked for 8 workers, as DT or
// through Auto (which keeps the ask), runs on the calling goroutine — no
// poll of its context sees a goroutine beyond the test's own.
func TestDTStartsNoGoroutine(t *testing.T) {
	for _, algo := range []Algorithm{DT, Auto} {
		req := synthRequest(t, "avg", 200)
		req.Algorithm, req.Workers = algo, 8
		baseline := runtime.NumGoroutine()
		w := &goroutineWatch{Context: context.Background()}
		res, err := ExplainContext(w, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Algorithm != DT {
			t.Fatalf("%v ran %v, want DT", algo, res.Stats.Algorithm)
		}
		if most := w.most.Load(); most == 0 || most > int64(baseline) {
			t.Errorf("%v: %d goroutines at a poll of the search's context, baseline %d (0: never polled)", algo, most, baseline)
		}
	}
}

// TestExplainContextPreCancelled checks an already-expired context returns
// promptly with context.DeadlineExceeded surfaced, leaving no goroutine
// behind.
func TestExplainContextPreCancelled(t *testing.T) {
	req := synthRequest(t, "avg", 100)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, err := ExplainContext(ctx, req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-cancelled ExplainContext took %s", elapsed)
	}
	settleGoroutines(t, baseline)
}

// TestExplainContextShortDeadline checks a deadline that expires mid-search
// interrupts a NAIVE run promptly, surfaces context.DeadlineExceeded, and
// still returns the best-so-far partial result with Stats annotated; its
// two workers exit with it.
func TestExplainContextShortDeadline(t *testing.T) {
	req := synthRequest(t, "median", 600) // black-box NAIVE: slow exhaustive search
	req.Algorithm = Naive
	req.Workers = 2
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := ExplainContext(ctx, req)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("interrupted search returned no partial result")
	}
	if !res.Stats.Interrupted {
		t.Fatal("partial result not marked interrupted")
	}
	if res.Stats.InterruptReason == "" {
		t.Fatal("partial result carries no interrupt reason")
	}
	if elapsed > 15*time.Second {
		t.Fatalf("interrupted search took %s, want prompt return", elapsed)
	}
	settleGoroutines(t, baseline)
}

// TestExplainContextCancelMidSearch checks explicit cancellation (the
// client-disconnect path) is surfaced as context.Canceled with partials,
// and leaves no goroutine behind.
func TestExplainContextCancelMidSearch(t *testing.T) {
	req := synthRequest(t, "median", 600)
	req.Algorithm = Naive
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res, err := ExplainContext(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if res == nil || !res.Stats.Interrupted {
		t.Fatal("cancelled search should return an interrupted partial result")
	}
	settleGoroutines(t, baseline)
}

// TestExplainContextCompletesUncancelled checks ExplainContext with a
// generous deadline behaves exactly like Explain.
func TestExplainContextCompletesUncancelled(t *testing.T) {
	req := synthRequest(t, "avg", 120)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := ExplainContext(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Interrupted {
		t.Fatal("completed search marked interrupted")
	}
	plain, err := Explain(req)
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, plain, res, "explaincontext-complete")
}
