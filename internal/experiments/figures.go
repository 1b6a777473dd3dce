package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition/naive"
)

// CSweep is the c grid used throughout §8.3 (0 to 0.5).
var CSweep = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}

// Figure9Row is one panel of Figure 9: the optimal NAIVE predicate at one c.
type Figure9Row struct {
	C         float64
	Predicate string
	Matched   int
	InnerAcc  eval.Accuracy
	OuterAcc  eval.Accuracy
}

// Figure9 reproduces the Figure 9 panels: NAIVE's optimal predicates on
// SYNTH-2D-Hard as c varies.
func Figure9(s Scale, w io.Writer) ([]Figure9Row, error) {
	ds := s.synthDataset(2, mu("Hard"))
	var rows []Figure9Row
	for _, c := range []float64{0, 0.05, 0.1, 0.2, 0.5} {
		out, err := s.RunAlgorithm("naive", ds, c)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Figure9Row{
			C:         c,
			Predicate: out.Best.Format(ds.Table),
			Matched:   out.OuterAcc.Matched,
			InnerAcc:  out.InnerAcc,
			OuterAcc:  out.OuterAcc,
		})
	}
	Section(w, "Figure 9: optimal NAIVE predicates on SYNTH-2D-Hard as c varies")
	tbl := NewTextTable("c", "matched", "outer F1", "inner F1", "predicate")
	for _, r := range rows {
		tbl.AddRow(r.C, r.Matched, r.OuterAcc.F1, r.InnerAcc.F1, r.Predicate)
	}
	tbl.Render(w)
	return rows, nil
}

// Figure10Row is one point of Figure 10: NAIVE accuracy vs c per dataset
// and ground-truth choice.
type Figure10Row struct {
	Dataset string // SYNTH-2D-Easy / SYNTH-2D-Hard
	C       float64
	Truth   string // Inner / Outer
	Acc     eval.Accuracy
}

// Figure10 reproduces Figure 10: NAIVE precision/recall/F as c varies, with
// both cubes as ground truth, on the Easy and Hard 2D datasets.
func Figure10(s Scale, w io.Writer) ([]Figure10Row, error) {
	var rows []Figure10Row
	for _, diff := range []string{"Easy", "Hard"} {
		ds := s.synthDataset(2, mu(diff))
		for _, c := range CSweep {
			out, err := s.RunAlgorithm("naive", ds, c)
			if err != nil {
				return nil, err
			}
			name := "SYNTH-2D-" + diff
			rows = append(rows,
				Figure10Row{Dataset: name, C: c, Truth: "Inner", Acc: out.InnerAcc},
				Figure10Row{Dataset: name, C: c, Truth: "Outer", Acc: out.OuterAcc},
			)
		}
	}
	Section(w, "Figure 10: NAIVE accuracy statistics as c varies")
	tbl := NewTextTable("dataset", "c", "truth", "precision", "recall", "F1")
	for _, r := range rows {
		tbl.AddRow(r.Dataset, r.C, r.Truth, r.Acc.Precision, r.Acc.Recall, r.Acc.F1)
	}
	tbl.Render(w)
	return rows, nil
}

// Figure11Row is one best-so-far sample of NAIVE's convergence curve.
type Figure11Row struct {
	C       float64
	Elapsed time.Duration
	InnerF1 float64
	OuterF1 float64
}

// Figure11 reproduces Figure 11: NAIVE's best-so-far accuracy over time on
// SYNTH-2D-Hard for three c values.
func Figure11(s Scale, w io.Writer) ([]Figure11Row, error) {
	ds := s.synthDataset(2, mu("Hard"))
	var rows []Figure11Row
	for _, c := range []float64{0, 0.1, 0.5} {
		// NAIVE's best-so-far Trace has no public surface, so this figure
		// alone drives the search directly instead of through the library.
		task, space, err := eval.SynthTask(ds, "sum", 0.5, c)
		if err != nil {
			return nil, err
		}
		scorer, err := influence.NewScorer(task)
		if err != nil {
			return nil, err
		}
		ctx, cancel := s.naiveContext()
		res, err := naive.RunContext(ctx, scorer, space, naive.Params{Bins: s.Bins}, 1)
		cancel()
		if err != nil {
			return nil, err
		}
		gO := task.OutlierUnion()
		for _, tp := range res.Trace {
			inner := eval.Score(tp.Pred, ds.Table, gO, ds.InnerRows)
			outer := eval.Score(tp.Pred, ds.Table, gO, ds.OuterRows)
			rows = append(rows, Figure11Row{
				C:       c,
				Elapsed: tp.Elapsed,
				InnerF1: inner.F1,
				OuterF1: outer.F1,
			})
		}
	}
	Section(w, "Figure 11: NAIVE best-so-far accuracy vs time on SYNTH-2D-Hard")
	tbl := NewTextTable("c", "elapsed", "inner F1", "outer F1")
	for _, r := range rows {
		tbl.AddRow(r.C, r.Elapsed.Round(time.Millisecond).String(), r.InnerF1, r.OuterF1)
	}
	tbl.Render(w)
	return rows, nil
}

// AccuracyRow is one (dataset, algorithm, c) accuracy measurement, used by
// Figures 12 and 13.
type AccuracyRow struct {
	Dataset   string
	Dims      int
	Algorithm string
	C         float64
	Acc       eval.Accuracy // vs the outer cube (§8.3.1's surrogate truth)
	Elapsed   time.Duration
}

// Figure12 reproduces Figure 12: DT vs MC vs NAIVE accuracy as c varies on
// the 2D datasets, outer-cube ground truth.
func Figure12(s Scale, w io.Writer) ([]AccuracyRow, error) {
	rows, err := accuracyGrid(s, []int{2}, []string{"Easy", "Hard"})
	if err != nil {
		return nil, err
	}
	Section(w, "Figure 12: accuracy by algorithm as c varies (2D)")
	tbl := NewTextTable("dataset", "algorithm", "c", "precision", "recall", "F1")
	for _, r := range rows {
		tbl.AddRow(r.Dataset, r.Algorithm, r.C, r.Acc.Precision, r.Acc.Recall, r.Acc.F1)
	}
	tbl.Render(w)
	return rows, nil
}

// Figure13 reproduces Figure 13: F-score as dimensionality grows from 2 to
// 4, Easy and Hard.
func Figure13(s Scale, w io.Writer) ([]AccuracyRow, error) {
	rows, err := accuracyGrid(s, []int{2, 3, 4}, []string{"Easy", "Hard"})
	if err != nil {
		return nil, err
	}
	Section(w, "Figure 13: F-score as dimensionality increases")
	tbl := NewTextTable("dims", "difficulty", "algorithm", "c", "F1")
	for _, r := range rows {
		diff := "Easy"
		if len(r.Dataset) >= 4 && r.Dataset[len(r.Dataset)-4:] == "Hard" {
			diff = "Hard"
		}
		tbl.AddRow(r.Dims, diff, r.Algorithm, r.C, r.Acc.F1)
	}
	tbl.Render(w)
	return rows, nil
}

// Figure14 reproduces Figure 14: runtime vs c as dimensionality increases
// (Easy datasets; log-scale cost in the paper).
func Figure14(s Scale, w io.Writer) ([]AccuracyRow, error) {
	rows, err := accuracyGrid(s, []int{2, 3, 4}, []string{"Easy"})
	if err != nil {
		return nil, err
	}
	Section(w, "Figure 14: cost (seconds) as dimensionality increases (Easy)")
	tbl := NewTextTable("dims", "algorithm", "c", "seconds")
	for _, r := range rows {
		tbl.AddRow(r.Dims, r.Algorithm, r.C, r.Elapsed.Seconds())
	}
	tbl.Render(w)
	return rows, nil
}

// accuracyGrid runs all three algorithms over a (dims × difficulty × c)
// grid.
func accuracyGrid(s Scale, dims []int, difficulties []string) ([]AccuracyRow, error) {
	cs := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	var rows []AccuracyRow
	for _, d := range dims {
		for _, diff := range difficulties {
			ds := s.synthDataset(d, mu(diff))
			for _, algo := range s.algorithms() {
				for _, c := range cs {
					out, err := s.RunAlgorithm(algo, ds, c)
					if err != nil {
						return nil, err
					}
					rows = append(rows, AccuracyRow{
						Dataset:   fmt.Sprintf("SYNTH-%dD-%s", d, diff),
						Dims:      d,
						Algorithm: algo,
						C:         c,
						Acc:       out.OuterAcc,
						Elapsed:   out.Elapsed,
					})
				}
			}
		}
	}
	return rows, nil
}

// Figure15Row is one runtime measurement at a dataset size.
type Figure15Row struct {
	Dims      int
	Tuples    int // total tuples
	Algorithm string
	Elapsed   time.Duration
}

// Figure15 reproduces Figure 15: cost as the Easy dataset grows, c = 0.1.
// Sizes are per-group tuple counts scaled around the configured base.
func Figure15(s Scale, w io.Writer) ([]Figure15Row, error) {
	perGroup := []int{s.TuplesPerGroup / 4, s.TuplesPerGroup / 2, s.TuplesPerGroup,
		s.TuplesPerGroup * 2, s.TuplesPerGroup * 4}
	var rows []Figure15Row
	for _, d := range []int{2, 3, 4} {
		for _, n := range perGroup {
			if n < 20 {
				continue
			}
			sz := s
			sz.TuplesPerGroup = n
			ds := sz.synthDataset(d, mu("Easy"))
			for _, algo := range []string{"dt", "mc"} {
				out, err := sz.RunAlgorithm(algo, ds, 0.1)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Figure15Row{
					Dims:      d,
					Tuples:    n * sz.Groups,
					Algorithm: algo,
					Elapsed:   out.Elapsed,
				})
			}
		}
	}
	Section(w, "Figure 15: cost as dataset size increases (Easy, c=0.1)")
	tbl := NewTextTable("dims", "total tuples", "algorithm", "seconds")
	for _, r := range rows {
		tbl.AddRow(r.Dims, r.Tuples, r.Algorithm, r.Elapsed.Seconds())
	}
	tbl.Render(w)
	return rows, nil
}

// Figure16Row is one cached-vs-fresh cost comparison point.
type Figure16Row struct {
	Dims       int
	Difficulty string
	C          float64
	Cached     time.Duration
	NoCache    time.Duration
	// CachedCalls and FreshCalls count each run's influence evaluations.
	CachedCalls, FreshCalls int64
}

// Figure16 reproduces Figure 16: executing DT+Merger over a descending c
// sweep with and without reusing the partitioning and prior merge results
// (§8.3.3). The cached column is one Session serving the whole sweep; the
// fresh column explains every c from scratch.
func Figure16(s Scale, w io.Writer) ([]Figure16Row, error) {
	var rows []Figure16Row
	for _, d := range []int{3, 4} {
		for _, diff := range []string{"Easy", "Hard"} {
			ds := s.synthDataset(d, mu(diff))
			req := synthRequest(ds, "avg", scorpion.DT, 0)
			session := scorpion.NewSession(req)
			for _, c := range []float64{0.5, 0.4, 0.3, 0.2, 0.1, 0} {
				req.SetC(c)
				cached, err := session.Explain(context.Background(), req, 1)
				if err != nil {
					return nil, err
				}
				fresh, err := explain(context.Background(), req)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Figure16Row{
					Dims:        d,
					Difficulty:  diff,
					C:           c,
					Cached:      cached.Stats.Duration,
					NoCache:     fresh.Stats.Duration,
					CachedCalls: cached.Stats.ScorerCalls,
					FreshCalls:  fresh.Stats.ScorerCalls,
				})
			}
		}
	}
	Section(w, "Figure 16: DT cost with and without caching across a descending c sweep")
	tbl := NewTextTable("dims", "difficulty", "c", "cached (s)", "no-cache (s)", "cached calls", "fresh calls")
	for _, r := range rows {
		tbl.AddRow(r.Dims, r.Difficulty, r.C, r.Cached.Seconds(), r.NoCache.Seconds(), r.CachedCalls, r.FreshCalls)
	}
	tbl.Render(w)
	return rows, nil
}
