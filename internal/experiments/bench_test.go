package experiments_test

// One testing.B per table/figure of the paper's evaluation (§8). They run
// the same experiment code as cmd/scorpion-bench at a reduced scale so
// `go test -bench=. -benchmem ./internal/experiments` completes on a
// laptop; run `scorpion-bench -full` for paper-scale parameters. Quality
// metrics (F1) are attached with b.ReportMetric so shape comparisons
// appear alongside timings.

import (
	"io"
	"testing"
	"time"

	"github.com/scorpiondb/scorpion/internal/experiments"
)

// benchScale is the reduced experiment scale used by every figure bench.
func benchScale() experiments.Scale {
	return experiments.Scale{
		TuplesPerGroup: 150,
		Groups:         6,
		OutlierGroups:  3,
		Bins:           8,
		NaiveDeadline:  3 * time.Second,
		Seed:           1,
	}
}

// BenchmarkTable1RunningExample regenerates Tables 1 and 2 and the
// explanation of the running example.
func BenchmarkTable1RunningExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunningExample(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9NaivePredicates regenerates Figure 9 (NAIVE optimal
// predicates on SYNTH-2D-Hard across c).
func BenchmarkFigure9NaivePredicates(b *testing.B) {
	s := benchScale()
	var f1 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure9(s, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		f1 = rows[len(rows)-1].OuterAcc.F1
	}
	b.ReportMetric(f1, "F1@c=0.5")
}

// BenchmarkFigure10NaiveAccuracy regenerates Figure 10 (NAIVE accuracy
// curves, Easy and Hard).
func BenchmarkFigure10NaiveAccuracy(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure10(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11NaiveConvergence regenerates Figure 11 (best-so-far
// accuracy over time).
func BenchmarkFigure11NaiveConvergence(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure12AccuracyByAlgorithm regenerates Figure 12 (DT vs MC vs
// NAIVE accuracy, 2D).
func BenchmarkFigure12AccuracyByAlgorithm(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure12(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure13FScoreByDimension regenerates Figure 13 (F-score, 2-4D).
// NAIVE is restricted to keep the 4D grid tractable per iteration; the DT
// and MC curves are the figure's point.
func BenchmarkFigure13FScoreByDimension(b *testing.B) {
	s := benchScale()
	s.Algorithms = []string{"dt", "mc"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure13(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure14CostByDimension regenerates Figure 14 (cost vs c, 2-4D).
func BenchmarkFigure14CostByDimension(b *testing.B) {
	s := benchScale()
	s.Algorithms = []string{"dt", "mc"}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure14(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure15CostByScale regenerates Figure 15 (cost vs dataset
// size).
func BenchmarkFigure15CostByScale(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure15(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure16Caching regenerates Figure 16 (cached vs fresh c sweep)
// and reports the aggregate speedup.
func BenchmarkFigure16Caching(b *testing.B) {
	s := benchScale()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Figure16(s, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var cached, fresh time.Duration
		for _, r := range rows {
			cached += r.Cached
			fresh += r.NoCache
		}
		if cached > 0 {
			speedup = float64(fresh) / float64(cached)
		}
	}
	b.ReportMetric(speedup, "speedup")
}

// BenchmarkIntelWorkload1 regenerates §8.4 INTEL workload 1 (dying sensor).
func BenchmarkIntelWorkload1(b *testing.B) {
	benchIntel(b, 1)
}

// BenchmarkIntelWorkload2 regenerates §8.4 INTEL workload 2 (battery
// decay).
func BenchmarkIntelWorkload2(b *testing.B) {
	benchIntel(b, 2)
}

func benchIntel(b *testing.B, workload int) {
	scale := experiments.IntelScale{Hours: 30, Sensors: 30, EpochsPerHour: 2, Seed: 7}
	var f1 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.IntelWorkload(workload, scale, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Acc.F1 > f1 {
				f1 = r.Acc.F1
			}
		}
	}
	b.ReportMetric(f1, "bestF1")
}

// BenchmarkExpenseWorkload regenerates §8.4's EXPENSE workload.
func BenchmarkExpenseWorkload(b *testing.B) {
	scale := experiments.ExpenseScale{Days: 30, RowsPerDay: 60, Recipients: 120, Seed: 5}
	var f1 float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExpenseWorkload(scale, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Acc.F1 > f1 {
				f1 = r.Acc.F1
			}
		}
	}
	b.ReportMetric(f1, "bestF1")
}
