package scorpion

// Benchmark harness: the parallel, sharded and ablation benches for the
// design choices DESIGN.md calls out (incremental scoring, DT sampling,
// merger approximation). The per-figure benches of the paper's evaluation
// (§8) live in internal/experiments.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/merge"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/partition/dt"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// --- Parallel search benches ------------------------------------------

// BenchmarkExplainParallel measures the worker-pool scaling of each search
// algorithm (Workers = 1, 2, 4, 8) on a fixed synthetic dataset — the perf
// trajectory baseline recorded in BENCH_parallel.json. NAIVE runs the
// black-box (median) scorer, DT the incremental AVG path, MC the
// anti-monotonic SUM path; parallel output is identical to serial. Only
// NAIVE fans out: DT and MC run on one goroutine, so their rows read flat.
func BenchmarkExplainParallel(b *testing.B) {
	cases := []struct {
		name string
		algo Algorithm
		bins int
		agg  string
	}{
		{"naive", Naive, 8, "median"},
		{"dt", DT, 0, "avg"},
		{"mc", MC, 0, "sum"},
	}
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 600, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 13,
	})
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(b *testing.B) {
				req := &Request{
					Table:            ds.Table,
					SQL:              "SELECT " + tc.agg + "(v), g FROM synth GROUP BY g",
					Outliers:         ds.OutlierKeys,
					AllOthersHoldOut: true,
					Direction:        TooHigh,
					Attributes:       ds.DimNames(),
					Algorithm:        tc.algo,
					Bins:             tc.bins,
					Workers:          workers,
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Explain(req); err != nil {
						b.Fatal(err)
					}
				}
				// Record the host parallelism with every run (after the
				// loop — ResetTimer deletes reported metrics): the scaling
				// numbers are only meaningful relative to it (a 1-CPU
				// container caps speedup at 1.0), so BENCH_parallel.json
				// re-records carry the caveat machine-readably.
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			})
		}
	}
}

// BenchmarkExplainSharded measures sharding ONE NAIVE Explain across
// horizontal table slices at an EQUAL worker budget (Workers 1, then 2, for
// both sides, so each comparison is algorithmic, not core-count). The dataset is
// the realistic sharding shape: a large group-contiguous table (rows
// ordered by the GROUP BY key, as time-series data is) with many hold-out
// groups and few flagged outlier groups. The sharded path wins because the
// group-aware planner splits the hold-out-only region into slices whose
// local searches are skipped outright, and each searched shard's scorer
// scans only its window's slice of the flagged provenance — the combiner
// then re-scores the deduped per-shard candidates exactly on the full
// table (with the hold-out penalties the shard searches did not see), so
// the top predicate matches the unsharded run's, which the bench asserts.
// Recorded in BENCH_shard.json alongside gomaxprocs.
func BenchmarkExplainSharded(b *testing.B) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 2000, Groups: 60, OutlierGroups: 4, Mu: 80, Seed: 21,
	})
	request := func(shards, workers int) *Request {
		return &Request{
			Table:            ds.Table,
			SQL:              "SELECT sum(v), g FROM synth GROUP BY g",
			Outliers:         ds.OutlierKeys,
			AllOthersHoldOut: true,
			Direction:        TooHigh,
			Attributes:       ds.DimNames(),
			Algorithm:        Naive,
			Bins:             10,
			Workers:          workers,
			Shards:           shards,
		}
	}
	// The correctness side of the acceptance criterion, checked once per
	// bench run: same top predicate, sharded or not.
	baseline, err := Explain(request(1, 1))
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 4, 8} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(b *testing.B) {
				var res *Result
				for i := 0; i < b.N; i++ {
					var err error
					if res, err = Explain(request(shards, workers)); err != nil {
						b.Fatal(err)
					}
				}
				if len(res.Explanations) == 0 ||
					!res.Explanations[0].Predicate.Equal(baseline.Explanations[0].Predicate) {
					b.Fatalf("shards=%d top predicate diverged from unsharded", shards)
				}
				b.ReportMetric(float64(res.Stats.Shards), "shards")
				b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
			})
		}
	}
}

// --- Ablation benches -------------------------------------------------

// benchSetup prepares a scorer + space over a standard 2D workload.
func benchSetup(b *testing.B, aggName string, c float64) (*influence.Scorer, *predicate.Space, *synth.Dataset) {
	b.Helper()
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 500, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 3,
	})
	task, space, err := eval.SynthTask(ds, aggName, 0.5, c)
	if err != nil {
		b.Fatal(err)
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		b.Fatal(err)
	}
	return scorer, space, ds
}

// BenchmarkScorerIncremental measures the §5.1 incremental scoring path.
func BenchmarkScorerIncremental(b *testing.B) {
	scorer, _, ds := benchSetup(b, "avg", 0.2)
	col := ds.Table.Schema().MustIndex("a1")
	p := predicate.MustNew(predicate.NewRangeClause(col, "a1", 20, 60, false))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = scorer.Influence(p)
	}
}

// BenchmarkScorerBlackBox measures the same predicate scored through the
// black-box recomputation path (the ablation of §5.1).
func BenchmarkScorerBlackBox(b *testing.B) {
	scorer, _, ds := benchSetup(b, "median", 0.2)
	col := ds.Table.Schema().MustIndex("a1")
	p := predicate.MustNew(predicate.NewRangeClause(col, "a1", 20, 60, false))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = scorer.Influence(p)
	}
}

// BenchmarkDTWithSampling measures DT with §6.1.2 sampling enabled.
func BenchmarkDTWithSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scorer, space, _ := benchSetup(b, "avg", 0.2)
		pt, err := dt.Partition(context.Background(), scorer, space, dt.Params{SampleSeed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		pt.Candidates(scorer)
	}
}

// BenchmarkDTNoSampling is the sampling ablation: every tuple's influence
// is computed.
func BenchmarkDTNoSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		scorer, space, _ := benchSetup(b, "avg", 0.2)
		pt, err := dt.Partition(context.Background(), scorer, space, dt.Params{DisableSampling: true})
		if err != nil {
			b.Fatal(err)
		}
		pt.Candidates(scorer)
	}
}

// BenchmarkMergerExact measures merging DT candidates as a DT run does:
// every merge scored exactly, through a fresh lattice per merge.
func BenchmarkMergerExact(b *testing.B) {
	scorer, space, _ := benchSetup(b, "avg", 0.2)
	pt, err := dt.Partition(context.Background(), scorer, space, dt.Params{DisableSampling: true})
	if err != nil {
		b.Fatal(err)
	}
	cands := pt.Candidates(scorer)
	b.ResetTimer()
	var calls int64
	for i := 0; i < b.N; i++ {
		before := scorer.Calls()
		m := merge.New(scorer, space, merge.Params{TopQuartileOnly: true}).WithLattice(scorer.NewLattice(space))
		out := m.Merge(cands)
		if _, ok := partition.Top(out); !ok {
			b.Fatal("no merged candidates")
		}
		calls = scorer.Calls() - before
	}
	b.ReportMetric(float64(calls), "scorer-calls/op")
}
