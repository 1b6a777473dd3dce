package merge

import (
	"math"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// gridFixture builds a 1-attribute dataset with a high-valued run in
// x ∈ [40,60) of the outlier group, plus 10-unit grid-cell candidates.
type gridFixture struct {
	scorer *influence.Scorer
	space  *predicate.Space
	table  *relation.Table
	cands  []partition.Candidate
}

func buildGrid(t testing.TB, c float64) gridFixture {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	for i := 0; i < 100; i++ {
		x := float64(i)
		v := 10.0
		if x >= 40 && x < 60 {
			v = 100
		}
		b.MustAppend(relation.Row{relation.S("out"), relation.F(x), relation.F(v)})
	}
	for i := 0; i < 100; i++ {
		b.MustAppend(relation.Row{relation.S("hold"), relation.F(float64(i)), relation.F(10)})
	}
	tbl := b.Build()
	out := relation.NewRowSet(tbl.NumRows())
	hold := relation.NewRowSet(tbl.NumRows())
	for r := 0; r < 100; r++ {
		out.Add(r)
	}
	for r := 100; r < 200; r++ {
		hold.Add(r)
	}
	task := &influence.Task{
		Table:    tbl,
		Agg:      aggregate.Avg{},
		AggCol:   tbl.Schema().MustIndex("v"),
		Outliers: []influence.Group{{Key: "out", Rows: out, Direction: influence.TooHigh}},
		HoldOuts: []influence.Group{{Key: "hold", Rows: hold}},
		Lambda:   0.5,
		C:        c,
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	space, err := predicate.NewSpace(tbl, []string{"x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cands []partition.Candidate
	for lo := 0.0; lo < 100; lo += 10 {
		p := predicate.MustNew(predicate.NewRangeClause(
			tbl.Schema().MustIndex("x"), "x", lo, lo+10, lo+10 >= 100))
		cands = append(cands, partition.Candidate{Pred: p, Score: scorer.Influence(p)})
	}
	return gridFixture{scorer: scorer, space: space, table: tbl, cands: cands}
}

func TestMergeGrowsAdjacentCells(t *testing.T) {
	fx := buildGrid(t, 0.2)
	m := New(fx.scorer, fx.space, Params{})
	out := m.Merge(fx.cands)
	if len(out) == 0 {
		t.Fatal("no merged candidates")
	}
	best := out[0]
	// The two high cells [40,50) and [50,60) must merge into [40,60).
	cl := best.Pred.Clauses()
	if len(cl) != 1 || math.Abs(cl[0].Lo-40) > 1e-9 || math.Abs(cl[0].Hi-60) > 1e-9 {
		t.Errorf("best merged = %v, want [40,60)", best.Pred)
	}
	// And it must outscore both inputs.
	for _, c := range fx.cands {
		if best.Score < c.Score {
			t.Errorf("merged score %v below input %v", best.Score, c.Score)
		}
	}
}

func TestMergeOutputSortedAndDeduped(t *testing.T) {
	fx := buildGrid(t, 0.2)
	m := New(fx.scorer, fx.space, Params{})
	out := m.Merge(fx.cands)
	seen := map[string]bool{}
	for i, c := range out {
		if i > 0 && c.Score > out[i-1].Score {
			t.Fatal("output not descending")
		}
		if seen[c.Pred.Key()] {
			t.Fatalf("duplicate predicate %v", c.Pred)
		}
		seen[c.Pred.Key()] = true
	}
}

func TestTopQuartileReducesExpansion(t *testing.T) {
	fxAll := buildGrid(t, 0.2)
	mAll := New(fxAll.scorer, fxAll.space, Params{})
	mAll.Merge(fxAll.cands)
	callsAll := fxAll.scorer.Calls()

	fxQ := buildGrid(t, 0.2)
	mQ := New(fxQ.scorer, fxQ.space, Params{TopQuartileOnly: true})
	mQ.Merge(fxQ.cands)
	callsQ := fxQ.scorer.Calls()

	if callsQ >= callsAll {
		t.Errorf("top-quartile did not reduce Scorer calls: %d vs %d", callsQ, callsAll)
	}
}

func TestMergeEmptyInput(t *testing.T) {
	fx := buildGrid(t, 0.2)
	m := New(fx.scorer, fx.space, Params{})
	if out := m.Merge(nil); out != nil {
		t.Errorf("Merge(nil) = %v, want nil", out)
	}
}

// mustBox converts p over space, failing the test when a Box cannot hold it.
func mustBox(t *testing.T, space *predicate.Space, p predicate.Predicate) predicate.Box {
	t.Helper()
	b, ok := space.Box(p)
	if !ok {
		t.Fatalf("Box(%v) failed", p)
	}
	return b
}

// TestSameColumns checks the column test of both paths: Box.SameColumns
// (the kernel) and sameColumns (the fallback for predicates a Box cannot
// hold).
func TestSameColumns(t *testing.T) {
	b := relation.NewBuilder(relation.MustSchema(
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "y", Kind: relation.Continuous},
	))
	b.MustAppend(relation.Row{relation.F(0), relation.F(2)})
	space, err := predicate.NewSpace(b.Build(), []string{"x", "y"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := predicate.MustNew(predicate.NewRangeClause(0, "x", 0, 1, false))
	bx := predicate.MustNew(predicate.NewRangeClause(0, "x", 1, 2, false))
	c := predicate.MustNew(predicate.NewRangeClause(1, "y", 0, 1, false))
	d := predicate.MustNew(
		predicate.NewRangeClause(0, "x", 0, 1, false),
		predicate.NewRangeClause(1, "y", 0, 1, false),
	)
	for _, tc := range []struct {
		p, q predicate.Predicate
		want bool
	}{{a, bx, true}, {a, c, false}, {a, d, false}, {d, d, true}} {
		if got := mustBox(t, space, tc.p).SameColumns(mustBox(t, space, tc.q)); got != tc.want {
			t.Errorf("Box(%v).SameColumns(%v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
		if got := sameColumns(tc.p, tc.q); got != tc.want {
			t.Errorf("sameColumns(%v, %v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
	}
}

func TestMergeSeededConverges(t *testing.T) {
	fx := buildGrid(t, 0.2)
	m := New(fx.scorer, fx.space, Params{})
	first := m.Merge(fx.cands)
	best, _ := partition.Top(first)

	// Seeding a fresh merge with the previous result must not lose quality
	// and must converge immediately for the seed.
	fx2 := buildGrid(t, 0.1) // lower c
	m2 := New(fx2.scorer, fx2.space, Params{})
	seeded := m2.MergeSeeded(fx2.cands, []partition.Candidate{best})
	sBest, _ := partition.Top(seeded)
	unseeded := m2.Merge(fx2.cands)
	uBest, _ := partition.Top(unseeded)
	if sBest.Score < uBest.Score-1e-9 {
		t.Errorf("seeded best %v worse than unseeded %v", sBest.Score, uBest.Score)
	}
}
