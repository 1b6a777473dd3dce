package mc

import (
	"context"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/synth"
)

func setup(t testing.TB, dims, perGroup int, mu, c float64) (*influence.Scorer, *predicate.Space, *synth.Dataset) {
	t.Helper()
	ds := synth.Generate(synth.Config{
		Dims: dims, TuplesPerGroup: perGroup, Groups: 6, OutlierGroups: 3, Mu: mu, Seed: 33,
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

func TestMCFindsPlantedCube(t *testing.T) {
	scorer, space, ds := setup(t, 2, 300, 80, 0.1)
	res, err := RunContext(context.Background(), scorer, space, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Score <= 0 {
		t.Fatalf("best score = %v", res.Best.Score)
	}
	acc := eval.Score(res.Best.Pred, ds.Table, scorer.Task().OutlierUnion(), ds.OuterRows)
	if acc.F1 < 0.5 {
		t.Errorf("F1 = %v (prec %v rec %v), pred = %v",
			acc.F1, acc.Precision, acc.Recall, res.Best.Pred)
	}
	if res.Iterations < 1 {
		t.Error("no iterations recorded")
	}
}

func TestMCHigherDimensional(t *testing.T) {
	scorer, space, ds := setup(t, 3, 250, 80, 0.1)
	res, err := RunContext(context.Background(), scorer, space, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc := eval.Score(res.Best.Pred, ds.Table, scorer.Task().OutlierUnion(), ds.OuterRows)
	if acc.F1 < 0.4 {
		t.Errorf("3D F1 = %v, pred = %v", acc.F1, res.Best.Pred)
	}
}

func TestMCRequiresAntiMonotonicAggregate(t *testing.T) {
	scorer, space, _ := setup(t, 2, 100, 80, 0.1)
	task := *scorer.Task()
	task.Agg = aggregate.Avg{} // independent but not anti-monotonic
	s2, err := influence.NewScorer(&task)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), s2, space, Params{}, 1); err == nil {
		t.Fatal("expected error for non-anti-monotonic aggregate")
	}
}

func TestMCRejectsNegativeDataForSum(t *testing.T) {
	// SUM's check(D) must veto data with negative values.
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 100, Groups: 4, OutlierGroups: 2,
		Mu: 80, Seed: 3, AllowNegative: true,
	})
	task, space, err := eval.SynthTask(ds, "sum", 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), scorer, space, Params{}, 1); err == nil {
		t.Fatal("expected check(D) failure for negative values")
	}
}

func TestMCCountAggregate(t *testing.T) {
	// COUNT outliers: the outlier group has extra tuples clustered in a box.
	schema := relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	// Hold-out group: 100 uniform tuples.
	for i := 0; i < 100; i++ {
		b.MustAppend(relation.Row{relation.S("hold"), relation.F(float64(i))})
	}
	// Outlier group: 100 uniform + 80 extra packed into x ∈ [40,50).
	for i := 0; i < 100; i++ {
		b.MustAppend(relation.Row{relation.S("out"), relation.F(float64(i))})
	}
	for i := 0; i < 80; i++ {
		b.MustAppend(relation.Row{relation.S("out"), relation.F(40 + float64(i%10))})
	}
	tbl := b.Build()
	hold := relation.NewRowSet(tbl.NumRows())
	out := relation.NewRowSet(tbl.NumRows())
	for r := 0; r < 100; r++ {
		hold.Add(r)
	}
	for r := 100; r < 280; r++ {
		out.Add(r)
	}
	task := &influence.Task{
		Table:    tbl,
		Agg:      aggregate.Count{},
		AggCol:   -1,
		Outliers: []influence.Group{{Key: "out", Rows: out, Direction: influence.TooHigh}},
		HoldOuts: []influence.Group{{Key: "hold", Rows: hold}},
		Lambda:   0.5,
		C:        0.2,
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	space, err := predicate.NewSpace(tbl, []string{"x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), scorer, space, Params{Bins: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The dense region {40..49} should dominate the explanation (at 10-bin
	// granularity the tightest covering range is [39.6, 49.5)).
	cl := res.Best.Pred.Clauses()
	if len(cl) != 1 || cl[0].Lo > 40.0+1e-6 || cl[0].Hi <= 49.0-1e-6 {
		t.Errorf("best predicate = %v, want a range covering {40..49}", res.Best.Pred)
	}
}

func TestMCDiscreteAttributes(t *testing.T) {
	// Outlier spending concentrated on one recipient (EXPENSE-shaped).
	schema := relation.MustSchema(
		relation.Column{Name: "day", Kind: relation.Discrete},
		relation.Column{Name: "recipient", Kind: relation.Discrete},
		relation.Column{Name: "amt", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	recips := []string{"r1", "r2", "r3", "big"}
	for i := 0; i < 120; i++ {
		day := "normal"
		recip := recips[i%3] // never "big"
		amt := 100.0
		b.MustAppend(relation.Row{relation.S(day), relation.S(recip), relation.F(amt)})
	}
	for i := 0; i < 120; i++ {
		recip := recips[i%4]
		amt := 100.0
		if recip == "big" {
			amt = 50000
		}
		b.MustAppend(relation.Row{relation.S("spike"), relation.S(recip), relation.F(amt)})
	}
	tbl := b.Build()
	normal := relation.NewRowSet(tbl.NumRows())
	spike := relation.NewRowSet(tbl.NumRows())
	for r := 0; r < 120; r++ {
		normal.Add(r)
	}
	for r := 120; r < 240; r++ {
		spike.Add(r)
	}
	task := &influence.Task{
		Table:    tbl,
		Agg:      aggregate.Sum{},
		AggCol:   tbl.Schema().MustIndex("amt"),
		Outliers: []influence.Group{{Key: "spike", Rows: spike, Direction: influence.TooHigh}},
		HoldOuts: []influence.Group{{Key: "normal", Rows: normal}},
		Lambda:   0.5,
		C:        0.5,
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	space, err := predicate.NewSpace(tbl, []string{"recipient"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), scorer, space, Params{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Best.Pred.Format(tbl); got != "recipient in ('big')" {
		t.Errorf("best = %q, want recipient in ('big')", got)
	}
}

func TestMCPruningKeepsOptimalReachable(t *testing.T) {
	// With pruning, MC must still match a prune-free run's best score on a
	// small instance.
	scorer, space, _ := setup(t, 2, 150, 80, 0.1)
	res, err := RunContext(context.Background(), scorer, space, Params{Bins: 8}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against a wide-open run with more units allowed.
	scorer2, space2, _ := setup(t, 2, 150, 80, 0.1)
	res2, err := RunContext(context.Background(), scorer2, space2, Params{Bins: 8, MaxUnits: 100000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Score < res2.Best.Score-1e-9 {
		t.Errorf("pruned best %v < unpruned best %v", res.Best.Score, res2.Best.Score)
	}
}
