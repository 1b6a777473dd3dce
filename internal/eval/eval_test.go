package eval

import (
	"math"
	"testing"

	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/synth"
)

func scoreTable(t *testing.T) *relation.Table {
	t.Helper()
	schema := relation.MustSchema(relation.Column{Name: "x", Kind: relation.Continuous})
	b := relation.NewBuilder(schema)
	for i := 0; i < 100; i++ {
		b.MustAppend(relation.Row{relation.F(float64(i))})
	}
	return b.Build()
}

func TestScorePerfectMatch(t *testing.T) {
	tbl := scoreTable(t)
	gO := relation.FullRowSet(100)
	truth := relation.NewRowSet(100)
	for i := 40; i < 60; i++ {
		truth.Add(i)
	}
	p := predicate.MustNew(predicate.NewRangeClause(0, "x", 40, 60, false))
	acc := Score(p, tbl, gO, truth)
	if acc.Precision != 1 || acc.Recall != 1 || acc.F1 != 1 || acc.Matched != 20 {
		t.Errorf("perfect match acc = %+v", acc)
	}
}

func TestScorePartialOverlap(t *testing.T) {
	tbl := scoreTable(t)
	gO := relation.FullRowSet(100)
	truth := relation.NewRowSet(100)
	for i := 40; i < 60; i++ {
		truth.Add(i)
	}
	// Predicate covers [50,70): 10 hits of 20 matched → precision 0.5,
	// recall 10/20 = 0.5.
	p := predicate.MustNew(predicate.NewRangeClause(0, "x", 50, 70, false))
	acc := Score(p, tbl, gO, truth)
	if math.Abs(acc.Precision-0.5) > 1e-9 || math.Abs(acc.Recall-0.5) > 1e-9 {
		t.Errorf("partial acc = %+v", acc)
	}
	if math.Abs(acc.F1-0.5) > 1e-9 {
		t.Errorf("F1 = %v, want 0.5", acc.F1)
	}
}

func TestScoreZeroDenominators(t *testing.T) {
	tbl := scoreTable(t)
	gO := relation.FullRowSet(100)
	empty := relation.NewRowSet(100)
	// No truth at all: recall undefined → 0, F1 0.
	p := predicate.MustNew(predicate.NewRangeClause(0, "x", 0, 10, false))
	acc := Score(p, tbl, gO, empty)
	if acc.Recall != 0 || acc.F1 != 0 {
		t.Errorf("empty truth acc = %+v", acc)
	}
	// Predicate matching nothing: precision undefined → 0.
	p = predicate.MustNew(predicate.NewRangeClause(0, "x", 500, 600, false))
	truth := relation.RowSetOf(100, 1, 2, 3)
	acc = Score(p, tbl, gO, truth)
	if acc.Precision != 0 || acc.Matched != 0 || acc.F1 != 0 {
		t.Errorf("no-match acc = %+v", acc)
	}
}

func TestScoreRestrictedToOutlierUnion(t *testing.T) {
	tbl := scoreTable(t)
	// g_O is only the first half; truth rows outside g_O must not count.
	gO := relation.NewRowSet(100)
	for i := 0; i < 50; i++ {
		gO.Add(i)
	}
	truth := relation.NewRowSet(100)
	for i := 40; i < 80; i++ {
		truth.Add(i) // only 40..49 are inside g_O
	}
	p := predicate.MustNew(predicate.NewRangeClause(0, "x", 40, 100, true))
	acc := Score(p, tbl, gO, truth)
	// Matched inside g_O: rows 40..49 = 10, all true → precision 1,
	// recall 10/10 = 1.
	if acc.Matched != 10 || acc.Precision != 1 || acc.Recall != 1 {
		t.Errorf("restricted acc = %+v", acc)
	}
}

func TestSynthTaskShape(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 50, Groups: 4, OutlierGroups: 2, Mu: 80, Seed: 2,
	})
	task, space, err := SynthTask(ds, "sum", 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(task.Outliers) != 2 || len(task.HoldOuts) != 2 {
		t.Fatalf("groups = %d/%d", len(task.Outliers), len(task.HoldOuts))
	}
	if task.C != 0.1 || task.Lambda != 0.5 {
		t.Errorf("knobs = %v/%v", task.C, task.Lambda)
	}
	if len(space.Columns()) != 2 {
		t.Errorf("space columns = %v", space.Columns())
	}
	if u := task.OutlierUnion(); u.Count() != 100 {
		t.Errorf("outlier union = %d rows, want 100", u.Count())
	}
}

func TestSynthTaskBadAggregate(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 20, Groups: 4, OutlierGroups: 2, Seed: 2,
	})
	if _, _, err := SynthTask(ds, "bogus", 0.5, 0.1); err == nil {
		t.Fatal("expected error for unknown aggregate")
	}
}
