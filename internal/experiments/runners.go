package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// Scale controls experiment sizes so the same harness serves quick CI runs
// (default) and paper-scale runs (-full in cmd/scorpion-bench).
type Scale struct {
	// TuplesPerGroup is the SYNTH group size (paper: 2000).
	TuplesPerGroup int
	// Groups and OutlierGroups shape SYNTH (paper: 10 and 5).
	Groups, OutlierGroups int
	// Bins for NAIVE/MC unit granularity (paper: 15): the request's Bins.
	Bins int
	// NaiveDeadline bounds each NAIVE run (paper: 40 min) as the deadline
	// of its context.
	NaiveDeadline time.Duration
	// Algorithms optionally restricts the grid experiments (Figures 12-14)
	// to a subset of {"naive", "dt", "mc"}; nil means all three.
	Algorithms []string
	// Seed drives all generators.
	Seed int64
}

// algorithms returns the configured algorithm list or the default trio.
func (s Scale) algorithms() []string {
	if len(s.Algorithms) > 0 {
		return s.Algorithms
	}
	return []string{"naive", "dt", "mc"}
}

// QuickScale finishes the full suite in tens of seconds on a laptop.
func QuickScale() Scale {
	return Scale{
		TuplesPerGroup: 250,
		Groups:         6,
		OutlierGroups:  3,
		Bins:           10,
		NaiveDeadline:  2 * time.Second,
		Seed:           1,
	}
}

// PaperScale mirrors §8.1's parameters (NAIVE runs are still capped at two
// minutes per configuration rather than the paper's 40).
func PaperScale() Scale {
	return Scale{
		TuplesPerGroup: 2000,
		Groups:         10,
		OutlierGroups:  5,
		Bins:           15,
		NaiveDeadline:  2 * time.Minute,
		Seed:           1,
	}
}

// synthDataset builds a SYNTH dataset at this scale.
func (s Scale) synthDataset(dims int, mu float64) *synth.Dataset {
	return synth.Generate(synth.Config{
		Dims:           dims,
		TuplesPerGroup: s.TuplesPerGroup,
		Groups:         s.Groups,
		OutlierGroups:  s.OutlierGroups,
		Mu:             mu,
		Seed:           s.Seed,
	})
}

// mu converts a difficulty name ("Easy"/"Hard") to µ.
func mu(difficulty string) float64 {
	if difficulty == "Hard" {
		return 30
	}
	return 80
}

// AlgoOutcome is one algorithm run's result on a SYNTH task.
type AlgoOutcome struct {
	Algorithm string
	Best      predicate.Predicate
	Score     float64
	// Elapsed is the run's Stats.Duration: plan, search and rank.
	Elapsed time.Duration
	// Interrupted is the run's Stats.Interrupted: NAIVE reached
	// NaiveDeadline, and Best is the best predicate found by then.
	Interrupted bool
	// InnerAcc and OuterAcc compare against the two ground-truth cubes.
	InnerAcc, OuterAcc eval.Accuracy
	// ScorerCalls counts influence evaluations.
	ScorerCalls int64
}

// algorithms maps the grid's algorithm names to the library's choices.
var algorithms = map[string]scorpion.Algorithm{
	"naive": scorpion.Naive,
	"dt":    scorpion.DT,
	"mc":    scorpion.MC,
}

// RunAlgorithm explains a SYNTH dataset's outliers under SUM (the paper's
// §8.1 query) at the given c, forcing one named algorithm ("naive", "dt",
// "mc").
func (s Scale) RunAlgorithm(algo string, ds *synth.Dataset, c float64) (AlgoOutcome, error) {
	return s.runAggregate(algo, "sum", ds, c)
}

// runAggregate is RunAlgorithm under the aggregate agg.
func (s Scale) runAggregate(algo, agg string, ds *synth.Dataset, c float64) (AlgoOutcome, error) {
	a, ok := algorithms[algo]
	if !ok {
		return AlgoOutcome{}, fmt.Errorf("eval: unknown algorithm %q", algo)
	}
	req := synthRequest(ds, agg, a, c)
	req.Bins = s.Bins
	ctx := context.Background()
	if a == scorpion.Naive {
		var cancel context.CancelFunc
		ctx, cancel = s.naiveContext()
		defer cancel()
	}
	res, err := explain(ctx, req)
	if err != nil {
		return AlgoOutcome{Algorithm: algo}, err
	}
	best := res.Explanations[0]
	gO := res.OutlierRows()
	return AlgoOutcome{
		Algorithm:   algo,
		Best:        best.Predicate,
		Score:       best.Influence,
		Elapsed:     res.Stats.Duration,
		Interrupted: res.Stats.Interrupted,
		InnerAcc:    eval.Score(best.Predicate, ds.Table, gO, ds.InnerRows),
		OuterAcc:    eval.Score(best.Predicate, ds.Table, gO, ds.OuterRows),
		ScorerCalls: res.Stats.ScorerCalls,
	}, nil
}

// naiveContext is the context one NAIVE run searches under: it expires
// after NaiveDeadline.
func (s Scale) naiveContext() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), s.NaiveDeadline)
}

// synthRequest is the SYNTH query SELECT agg(v), g GROUP BY g as one
// library request: the planted outlier groups flagged too high, the rest
// held out, λ = 0.5, the given c, and algo searching one shard, so a figure
// times one search however large its table grows.
func synthRequest(ds *synth.Dataset, agg string, algo scorpion.Algorithm, c float64) *scorpion.Request {
	req := &scorpion.Request{
		Table:      ds.Table,
		SQL:        fmt.Sprintf("SELECT %s(v), g FROM synth GROUP BY g", agg),
		Outliers:   ds.OutlierKeys,
		HoldOuts:   ds.HoldOutKeys,
		Direction:  scorpion.TooHigh,
		Attributes: ds.DimNames(),
		Algorithm:  algo,
		Shards:     1,
	}
	req.SetLambda(0.5)
	req.SetC(c)
	return req
}

// explain runs req through the library under ctx and fails when it found
// nothing. A search stopped by ctx's deadline is no failure: its partial
// result, marked Stats.Interrupted, stands.
func explain(ctx context.Context, req *scorpion.Request) (*scorpion.Result, error) {
	res, err := scorpion.ExplainContext(ctx, req)
	if err != nil && (res == nil || !errors.Is(err, context.DeadlineExceeded)) {
		return nil, err
	}
	if len(res.Explanations) == 0 {
		return nil, fmt.Errorf("eval: %v produced no explanation", req.Algorithm)
	}
	return res, nil
}
