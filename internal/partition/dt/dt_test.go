package dt

import (
	"context"
	"math"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/merge"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/synth"
)

func setup(t testing.TB, dims, perGroup int, mu float64, c float64) (*influence.Scorer, *predicate.Space, *synth.Dataset) {
	t.Helper()
	ds := synth.Generate(synth.Config{
		Dims: dims, TuplesPerGroup: perGroup, Groups: 6, OutlierGroups: 3, Mu: mu, Seed: 21,
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

func TestThresholdCurve(t *testing.T) {
	// ω must be τmax for low infMax, τmin at infMax = infU, monotone
	// non-increasing in between; threshold scales by the spread.
	infL, infU := 0.0, 100.0
	tauMin, tauMax, p := 0.05, 0.5, 0.5
	atMax := threshold(infU, infL, infU, tauMin, tauMax, p)
	if math.Abs(atMax-tauMin*(infU-infL)) > 1e-9 {
		t.Errorf("threshold(infU) = %v, want %v", atMax, tauMin*(infU-infL))
	}
	atLow := threshold(infL, infL, infU, tauMin, tauMax, p)
	if math.Abs(atLow-tauMax*(infU-infL)) > 1e-9 {
		t.Errorf("threshold(infL) = %v, want %v", atLow, tauMax*(infU-infL))
	}
	atInflect := threshold(50, infL, infU, tauMin, tauMax, p)
	if math.Abs(atInflect-tauMax*(infU-infL)) > 1e-9 {
		t.Errorf("threshold at inflection = %v, want τmax·spread", atInflect)
	}
	prev := math.Inf(1)
	for x := 0.0; x <= 100; x += 5 {
		th := threshold(x, infL, infU, tauMin, tauMax, p)
		if th > prev+1e-12 {
			t.Fatalf("threshold increased at infMax=%v", x)
		}
		prev = th
	}
	if got := threshold(5, 3, 3, tauMin, tauMax, p); got != 0 {
		t.Errorf("degenerate spread threshold = %v, want 0", got)
	}
}

func TestPartitionLeavesTileOutlierGroups(t *testing.T) {
	scorer, space, _ := setup(t, 2, 200, 80, 0.1)
	pt, err := Partition(context.Background(), scorer, space, Params{DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.OutlierLeaves) == 0 {
		t.Fatal("no outlier leaves")
	}
	task := scorer.Task()
	gO := task.OutlierUnion()
	gO.ForEach(func(r int) {
		matches := 0
		for _, leaf := range pt.OutlierLeaves {
			if leaf.Pred.Match(task.Table.Data(), r) {
				matches++
			}
		}
		if matches != 1 {
			t.Fatalf("row %d matches %d outlier leaves, want exactly 1", r, matches)
		}
	})
}

func TestCombinedPiecesTileOutlierGroups(t *testing.T) {
	scorer, space, _ := setup(t, 2, 200, 80, 0.1)
	pt, err := Partition(context.Background(), scorer, space, Params{DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	task := scorer.Task()
	gO := task.OutlierUnion()
	gO.ForEach(func(r int) {
		matches := 0
		for _, piece := range pt.Combined {
			if piece.pred.Match(task.Table.Data(), r) {
				matches++
			}
		}
		if matches != 1 {
			t.Fatalf("row %d matches %d combined pieces, want exactly 1", r, matches)
		}
	})
}

// With sampling off, each leaf's MeanInfluence is the exact pooled mean of
// its rows' influences: summed per group in row order, then pooled.
func TestLeafMeanInfluenceIsExact(t *testing.T) {
	scorer, space, _ := setup(t, 2, 150, 80, 0.1)
	pt, err := Partition(context.Background(), scorer, space, Params{DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	task := scorer.Task()
	check := func(name string, leaves []Leaf, groups []influence.Group, inf func(gi, row int) float64) {
		if len(leaves) == 0 {
			t.Fatalf("no %s leaves", name)
		}
		for _, leaf := range leaves {
			var pooled float64
			count := 0
			for gi, g := range groups {
				var sum float64
				g.Rows.ForEach(func(r int) {
					if leaf.Pred.Match(task.Table.Data(), r) {
						sum += inf(gi, r)
						count++
					}
				})
				pooled += sum
			}
			want := 0.0
			if count > 0 {
				want = pooled / float64(count)
			}
			if math.Float64bits(leaf.MeanInfluence) != math.Float64bits(want) {
				t.Fatalf("%s leaf %v MeanInfluence = %v, want %v", name, leaf.Pred, leaf.MeanInfluence, want)
			}
		}
	}
	check("outlier", pt.OutlierLeaves, task.Outliers, scorer.TupleOutlierInfluence)
	check("hold-out", pt.HoldOutLeaves, task.HoldOuts, scorer.TupleHoldOutInfluence)
}

func TestDTFindsPlantedCube(t *testing.T) {
	scorer, space, ds := setup(t, 2, 300, 80, 0.1)
	pt, err := Partition(context.Background(), scorer, space, Params{})
	if err != nil {
		t.Fatal(err)
	}
	cands := pt.Candidates(scorer)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	// After merging, the top candidate should recover the planted cube.
	merger := merge.New(scorer, space, merge.Params{TopQuartileOnly: true})
	merged := merger.Merge(cands)
	best, ok := partition.Top(merged)
	if !ok {
		t.Fatal("merger returned nothing")
	}
	acc := eval.Score(best.Pred, ds.Table, scorer.Task().OutlierUnion(), ds.OuterRows)
	if acc.F1 < 0.5 {
		t.Errorf("merged F1 = %v (prec %v rec %v), pred = %v",
			acc.F1, acc.Precision, acc.Recall, best.Pred)
	}
}

func TestDTWithSamplingStillWorks(t *testing.T) {
	scorer, space, ds := setup(t, 2, 400, 80, 0.1)
	pt, err := Partition(context.Background(), scorer, space, Params{SampleSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cands := pt.Candidates(scorer)
	merger := merge.New(scorer, space, merge.Params{TopQuartileOnly: true})
	best, ok := partition.Top(merger.Merge(cands))
	if !ok {
		t.Fatal("no merged candidates")
	}
	acc := eval.Score(best.Pred, ds.Table, scorer.Task().OutlierUnion(), ds.OuterRows)
	if acc.F1 < 0.4 {
		t.Errorf("sampled F1 = %v, pred = %v", acc.F1, best.Pred)
	}
}

func TestPartitioningReusableAcrossC(t *testing.T) {
	scorer, space, _ := setup(t, 2, 150, 80, 0.5)
	pt, err := Partition(context.Background(), scorer, space, Params{DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	candsHighC := pt.Candidates(scorer)

	// Re-score the same partitioning with c = 0.
	task0 := *scorer.Task()
	task0.C = 0
	scorer0, err := influence.NewScorer(&task0)
	if err != nil {
		t.Fatal(err)
	}
	candsLowC := pt.Candidates(scorer0)
	if len(candsHighC) != len(candsLowC) {
		t.Fatalf("candidate counts differ: %d vs %d", len(candsHighC), len(candsLowC))
	}
	// Scores must differ somewhere (c matters) while predicates coincide.
	keys := func(cs []partition.Candidate) map[string]bool {
		m := map[string]bool{}
		for _, c := range cs {
			m[c.Pred.Key()] = true
		}
		return m
	}
	k1, k2 := keys(candsHighC), keys(candsLowC)
	for k := range k1 {
		if !k2[k] {
			t.Fatal("predicate sets differ across c")
		}
	}
}

func TestDTRejectsNonIndependentAggregate(t *testing.T) {
	scorer, space, _ := setup(t, 2, 100, 80, 0.1)
	task := *scorer.Task()
	task.Agg = aggregate.Median{}
	s2, err := influence.NewScorer(&task)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(context.Background(), s2, space, Params{}); err == nil {
		t.Fatal("expected error for non-independent aggregate")
	}
}

func TestDiscreteSplitting(t *testing.T) {
	// A dataset whose outliers are keyed by a discrete attribute: the tree
	// must split on it.
	schema := relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.Discrete},
		relation.Column{Name: "sensor", Kind: relation.Discrete},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	for i := 0; i < 200; i++ {
		sensor := []string{"s1", "s2", "s3", "s4"}[i%4]
		v := 10.0
		if sensor == "s3" {
			v = 90
		}
		b.MustAppend(relation.Row{relation.S("out"), relation.S(sensor), relation.F(v)})
	}
	for i := 0; i < 200; i++ {
		b.MustAppend(relation.Row{relation.S("hold"), relation.S([]string{"s1", "s2", "s3", "s4"}[i%4]), relation.F(10)})
	}
	tbl := b.Build()
	out := relation.NewRowSet(tbl.NumRows())
	hold := relation.NewRowSet(tbl.NumRows())
	for r := 0; r < 200; r++ {
		out.Add(r)
	}
	for r := 200; r < 400; r++ {
		hold.Add(r)
	}
	task := &influence.Task{
		Table:    tbl,
		Agg:      aggregate.Avg{},
		AggCol:   tbl.Schema().MustIndex("v"),
		Outliers: []influence.Group{{Key: "out", Rows: out, Direction: influence.TooHigh}},
		HoldOuts: []influence.Group{{Key: "hold", Rows: hold}},
		Lambda:   0.5,
		C:        1,
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	space, err := predicate.NewSpace(tbl, []string{"sensor"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := Partition(context.Background(), scorer, space, Params{DisableSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	cands := pt.Candidates(scorer)
	best, ok := partition.Top(cands)
	if !ok {
		t.Fatal("no candidates")
	}
	if got := best.Pred.Format(tbl); got != "sensor in ('s3')" {
		t.Errorf("best = %q, want sensor in ('s3')", got)
	}
}
