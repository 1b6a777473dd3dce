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
func mixedFixture(seed int64, agg aggregate.Func, aggCol bool) (*influence.Task, *predicate.Space) {
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
		Lambda:   0.5, C: 0.2,
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

// pairFixture is a table of two discrete search attributes, a and b, of
// 12 codes each, in which every group holds every (a, b) pair — twice in
// each of the two outlier groups, once in each of the two hold-outs — so
// every conjunction the search enumerates matches rows of every group. All
// values are positive; rows with a = 3 run high in outlier group 0.
func pairFixture(seed int64, agg aggregate.Func, aggCol bool, dir influence.Direction, lambda, c float64) (*influence.Task, *predicate.Space) {
	rng := rand.New(rand.NewSource(seed))
	schema := relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.Discrete},
		relation.Column{Name: "b", Kind: relation.Discrete},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	reps := []int{2, 2, 1, 1}
	groups := make([]*relation.RowSet, len(reps))
	for g := range groups {
		groups[g] = relation.NewRowSet(144 * 6)
	}
	row := 0
	for pair := 0; pair < 144; pair++ {
		for g, n := range reps {
			for r := 0; r < n; r++ {
				v := 10 + rng.Float64()*5
				if g == 0 && pair%12 == 3 {
					v += 40
				}
				b.MustAppend(relation.Row{
					relation.S(fmt.Sprintf("a%02d", pair%12)),
					relation.S(fmt.Sprintf("b%02d", pair/12)),
					relation.F(v),
				})
				groups[g].Add(row)
				row++
			}
		}
	}
	tbl := b.Build()
	task := &influence.Task{
		Table: tbl, Agg: agg, AggCol: -1,
		Outliers: []influence.Group{{Key: "0", Rows: groups[0], Direction: dir}, {Key: "1", Rows: groups[1], Direction: dir}},
		HoldOuts: []influence.Group{{Key: "2", Rows: groups[2]}, {Key: "3", Rows: groups[3]}},
		Lambda:   lambda, C: c,
	}
	if aggCol {
		task.AggCol = 2
	}
	space, err := predicate.NewSpace(tbl, []string{"a", "b"}, nil)
	if err != nil {
		panic(err)
	}
	return task, space
}

// allTied reports whether every kept score ties with the best.
func allTied(top []partition.Candidate) bool {
	for _, c := range top {
		if math.Float64bits(c.Score) != math.Float64bits(top[0].Score) {
			return false
		}
	}
	return true
}

// TestNaiveClauseSelectionEquivalence holds the gated clause-table search
// to the ungated reference, serially and with 2 and 4 workers: the same
// predicates with the same score bits in the same order and the same
// Enumerated. Scorer calls are the same for every worker count and are
// exactly the reference's minus the hold-out scans the gate skipped, so
// never more. The adversarial fixtures put the floor below zero (every
// score negative), put thousands of exact ties at the floor (only the
// enumeration order decides), take λ to 0 and 1, and score count(*).
func TestNaiveClauseSelectionEquivalence(t *testing.T) {
	type fixture struct {
		name   string
		build  func() (*influence.Task, *predicate.Space)
		params Params
		// gates: the enumeration outlasts the floor's lag, and the gate
		// must skip hold-out scans (at λ = 0 the bound is 0 and gates
		// nothing; the penalty still sinks predicates early).
		gates bool
		// shape, when set, checks the reference top-k is what the fixture
		// is there for.
		shape func(top []partition.Candidate) bool
	}
	fixtures := []fixture{
		{"synth-sum", func() (*influence.Task, *predicate.Space) {
			s, space, _ := smallSetup(t, 0.1)
			return s.Task(), space
		}, Params{Bins: 7}, true, nil},
		{"discrete-avg", func() (*influence.Task, *predicate.Space) {
			f := buildDiscreteTask(t)
			return f.task, f.space
		}, Params{}, false, nil},
	}
	for _, agg := range []aggregate.Func{aggregate.Sum{}, aggregate.StdDev{}, aggregate.Median{}} {
		agg := agg
		fixtures = append(fixtures, fixture{
			"mixed-" + agg.Name(),
			func() (*influence.Task, *predicate.Space) { return mixedFixture(11, agg, true) },
			Params{Bins: 4, MaxDiscreteSubset: 2, TopK: 12}, true, nil,
		})
	}
	for _, lambda := range []float64{0, 1} {
		lambda := lambda
		fixtures = append(fixtures, fixture{
			fmt.Sprintf("mixed-sum-lambda=%v", lambda),
			func() (*influence.Task, *predicate.Space) {
				task, space := mixedFixture(13, aggregate.Sum{}, true)
				task.Lambda = lambda
				return task, space
			},
			Params{Bins: 4, MaxDiscreteSubset: 2, TopK: 12}, true, nil,
		})
	}
	fixtures = append(fixtures,
		fixture{"mixed-count-star",
			func() (*influence.Task, *predicate.Space) { return mixedFixture(5, aggregate.Count{}, false) },
			Params{Bins: 3, MaxClauses: 2}, false, nil},
		fixture{"mixed-count-star-wide",
			func() (*influence.Task, *predicate.Space) { return mixedFixture(5, aggregate.Count{}, false) },
			Params{Bins: 4, MaxDiscreteSubset: 2, TopK: 12}, true, nil},
		// Every conjunction removes positive values from both too-low
		// outliers: every score, and so the floor, is negative.
		fixture{"all-negative-sum",
			func() (*influence.Task, *predicate.Space) {
				return pairFixture(3, aggregate.Sum{}, true, influence.TooLow, 0.5, 0.2)
			},
			Params{MaxDiscreteSubset: 2, TopK: 12}, true,
			func(top []partition.Candidate) bool { return top[0].Score < 0 }},
		// count(*) at c = 0 scores a conjunction of |S| × |T| codes at
		// |S|·|T|/2: thousands of exact ties, the best of them at the floor.
		fixture{"ties-count-star",
			func() (*influence.Task, *predicate.Space) {
				return pairFixture(3, aggregate.Count{}, false, influence.TooHigh, 0.5, 0)
			},
			Params{MaxDiscreteSubset: 2, TopK: 12}, true, allTied},
		fixture{"ties-count-star-lambda=1",
			func() (*influence.Task, *predicate.Space) {
				return pairFixture(3, aggregate.Count{}, false, influence.TooHigh, 1, 0)
			},
			Params{MaxDiscreteSubset: 2, TopK: 5}, true, allTied},
	)

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
		if f.shape != nil && !f.shape(want.TopK) {
			t.Fatalf("%s: reference top-k %v is not the fixture's shape", f.name, want.TopK)
		}
		var first *Result
		var firstCalls int64
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
			calls := scorer.Calls()
			if first == nil {
				first, firstCalls = got, calls
				if calls > refScorer.Calls() || calls != refScorer.Calls()-got.SkippedHoldOuts {
					t.Errorf("%s: %d scorer calls, reference %d less %d skipped hold-out scans",
						name, calls, refScorer.Calls(), got.SkippedHoldOuts)
				}
				if f.gates && got.SkippedHoldOuts == 0 {
					t.Errorf("%s: the gate never skipped a hold-out scan", name)
				}
			} else if calls != firstCalls || got.Gated != first.Gated || got.SkippedHoldOuts != first.SkippedHoldOuts {
				t.Errorf("%s: calls/gated/skipped %d/%d/%d, one worker %d/%d/%d", name,
					calls, got.Gated, got.SkippedHoldOuts, firstCalls, first.Gated, first.SkippedHoldOuts)
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
