package naive

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// referenceRun is the search as it was before the clause table: every
// enumerated conjunction becomes a predicate.Predicate and is scored through
// Scorer.Influence, one Match per row per predicate.
func referenceRun(t *testing.T, scorer *influence.Scorer, space *predicate.Space, params Params) *Result {
	t.Helper()
	params = params.withDefaults()
	e, maxCard, maxClauses, err := newEnumerator(partition.NewPool(context.Background(), 1), scorer, space, params)
	if err != nil {
		t.Fatal(err)
	}
	keeper := topK[predicate.Predicate]{k: params.TopK}
	e.sink = func(c conj, seq int64) {
		p := e.predicate(c)
		keeper.offer(scorer.Influence(p), seq, p)
	}
	e.run(maxCard, maxClauses)
	return &Result{TopK: candidates(&keeper), Enumerated: e.produced}
}

// mixedFixture is a random table with a discrete and two continuous search
// attributes, negative aggregate values, groups of uneven size that
// interleave row by row, and (optionally) count(*) as the aggregate column.
// It holds no NaN: a NaN score has no rank, so with one in play the top-k
// depends on the order batches arrive in, with or without the clause table.
func mixedFixture(seed int64, agg aggregate.Func, aggCol bool, perturb *float64) (*influence.Task, *predicate.Space) {
	rng := rand.New(rand.NewSource(seed))
	schema := relation.MustSchema(
		relation.Column{Name: "d", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "y", Kind: relation.Continuous},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	const n = 700
	groups := make([]*relation.RowSet, 4)
	for g := range groups {
		groups[g] = relation.NewRowSet(n)
	}
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()*20 + 30
		g := rng.Intn(5)
		if g == 4 { // a long contiguous stretch of group 0 now and then
			g = 0
		}
		if g == 0 && rng.Intn(3) == 0 {
			v += 90
		}
		groups[g].Add(i)
		b.MustAppend(relation.Row{
			relation.S(fmt.Sprintf("c%d", rng.Intn(4))),
			relation.F(rng.Float64() * 50),
			relation.F(math.Floor(rng.Float64() * 7)),
			relation.F(v),
		})
	}
	tbl := b.Build()
	task := &influence.Task{
		Table: tbl, Agg: agg, AggCol: -1,
		Outliers: []influence.Group{
			{Key: "0", Rows: groups[0], Direction: influence.TooHigh},
			{Key: "1", Rows: groups[1], Direction: influence.TooLow},
		},
		HoldOuts: []influence.Group{{Key: "2", Rows: groups[2]}, {Key: "3", Rows: groups[3]}},
		Lambda:   0.5, C: 0.2, Perturb: perturb,
	}
	if aggCol {
		task.AggCol = 3
	}
	space, err := predicate.NewSpace(tbl, []string{"d", "x", "y"}, nil)
	if err != nil {
		panic(err)
	}
	return task, space
}

// TestNaiveClauseSelectionEquivalence holds the clause-table search to the
// reference: the same predicates with the same score bits in the same
// order, the same Enumerated, and the same number of scorer calls — serial
// and with 2 and 4 workers.
func TestNaiveClauseSelectionEquivalence(t *testing.T) {
	target := 12.0
	type fixture struct {
		name   string
		build  func() (*influence.Task, *predicate.Space)
		params Params
	}
	fixtures := []fixture{
		{"synth-sum", func() (*influence.Task, *predicate.Space) {
			s, space, _ := smallSetup(t, 0.1)
			return s.Task(), space
		}, Params{Bins: 7}},
		{"discrete-avg", func() (*influence.Task, *predicate.Space) {
			f := buildDiscreteTask(t)
			return f.task, f.space
		}, Params{}},
	}
	for _, agg := range []aggregate.Func{aggregate.Sum{}, aggregate.StdDev{}, aggregate.Median{}} {
		for _, perturb := range []*float64{nil, &target} {
			agg, perturb := agg, perturb
			fixtures = append(fixtures, fixture{
				fmt.Sprintf("mixed-%s-perturb=%v", agg.Name(), perturb != nil),
				func() (*influence.Task, *predicate.Space) { return mixedFixture(11, agg, true, perturb) },
				Params{Bins: 4, MaxDiscreteSubset: 2, TopK: 12},
			})
		}
	}
	fixtures = append(fixtures, fixture{"mixed-count-star",
		func() (*influence.Task, *predicate.Space) { return mixedFixture(5, aggregate.Count{}, false, nil) },
		Params{Bins: 3, MaxClauses: 2}})

	for _, f := range fixtures {
		task, space := f.build()
		refScorer, err := influence.NewScorer(task)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceRun(t, refScorer, space, f.params)
		if want.Enumerated == 0 || len(want.TopK) == 0 {
			t.Fatalf("%s: reference found nothing", f.name)
		}
		for _, workers := range []int{1, 2, 4} {
			scorer, err := influence.NewScorer(task)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunContext(context.Background(), scorer, space, f.params, workers)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/workers=%d", f.name, workers)
			if got.Enumerated != want.Enumerated {
				t.Errorf("%s: enumerated %d, reference %d", name, got.Enumerated, want.Enumerated)
			}
			if got, want := scorer.Calls(), refScorer.Calls(); got != want {
				t.Errorf("%s: %d scorer calls, reference %d", name, got, want)
			}
			if len(got.TopK) != len(want.TopK) {
				t.Fatalf("%s: %d candidates, reference %d", name, len(got.TopK), len(want.TopK))
			}
			for i := range want.TopK {
				g, w := got.TopK[i], want.TopK[i]
				if !g.Pred.Equal(w.Pred) || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
					t.Fatalf("%s: rank %d is %v (%v), reference %v (%v)", name, i, g.Pred, g.Score, w.Pred, w.Score)
				}
			}
		}
	}
}
