package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// fixture is a synthetic 4-group task (2 outliers, 2 hold-outs) whose
// aggregate values follow a chosen distribution, plus a pool of random
// predicates over its discrete and continuous attributes.
type fixture struct {
	task   *influence.Task
	scorer *influence.Scorer
	preds  []predicate.Predicate
}

// value draws one aggregate value for the named distribution.
func value(dist string, rng *rand.Rand) float64 {
	switch dist {
	case "constant":
		return 5
	case "heavy":
		// Pareto-ish tail, α ≈ 1.2: a few rows dominate the group sum.
		return math.Pow(1-rng.Float64(), -1/1.2)
	case "bimodal":
		if rng.Float64() < 0.1 {
			return 100
		}
		return 1
	default:
		panic("unknown distribution " + dist)
	}
}

func buildFixture(t testing.TB, dist string, agg aggregate.Func, nPreds int) *fixture {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.Discrete},
		relation.Column{Name: "a", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	rng := rand.New(rand.NewSource(42))
	groups := []string{"o1", "o2", "h1", "h2"}
	const perGroup = 1200
	for _, g := range groups {
		for i := 0; i < perGroup; i++ {
			b.MustAppend(relation.Row{
				relation.S(g),
				relation.S(fmt.Sprintf("a%d", rng.Intn(8))),
				relation.F(rng.Float64() * 100),
				relation.F(value(dist, rng)),
			})
		}
	}
	tbl := b.Build()

	rows := make(map[string]*relation.RowSet, len(groups))
	for _, g := range groups {
		rows[g] = relation.NewRowSet(tbl.NumRows())
	}
	gCol, aCol, xCol, vCol := 0, 1, 2, 3
	gCodes := tbl.Codes(gCol)
	gDict := tbl.Dict(gCol)
	for r := 0; r < tbl.NumRows(); r++ {
		rows[gDict.Value(gCodes[r])].Add(r)
	}

	aggCol := vCol
	if _, ok := agg.(aggregate.Count); ok {
		aggCol = -1
	}
	task := &influence.Task{
		Table:  tbl,
		Agg:    agg,
		AggCol: aggCol,
		Outliers: []influence.Group{
			{Key: "o1", Rows: rows["o1"], Direction: influence.TooHigh},
			{Key: "o2", Rows: rows["o2"], Direction: influence.TooHigh},
		},
		HoldOuts: []influence.Group{
			{Key: "h1", Rows: rows["h1"]},
			{Key: "h2", Rows: rows["h2"]},
		},
		Lambda: 0.5,
		C:      0.5,
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}

	all := relation.NewRowSet(tbl.NumRows())
	for _, rs := range rows {
		all.Or(rs)
	}
	aCodes := tbl.DistinctCodes(aCol, all)
	prng := rand.New(rand.NewSource(7))
	var preds []predicate.Predicate
	for len(preds) < nPreds {
		var clauses []predicate.Clause
		// 1–2 discrete codes on "a", sometimes with a range on "x".
		k := 1 + prng.Intn(2)
		codes := make([]int32, 0, k)
		seen := map[int32]bool{}
		for len(codes) < k {
			c := aCodes[prng.Intn(len(aCodes))]
			if !seen[c] {
				seen[c] = true
				codes = append(codes, c)
			}
		}
		clauses = append(clauses, predicate.NewSetClause(aCol, "a", codes))
		if prng.Float64() < 0.5 {
			lo := prng.Float64() * 80
			clauses = append(clauses, predicate.NewRangeClause(xCol, "x", lo, lo+5+prng.Float64()*40, false))
		}
		preds = append(preds, predicate.MustNew(clauses...))
	}
	return &fixture{task: task, scorer: scorer, preds: preds}
}

func newTestEstimator(t testing.TB, fx *fixture) *Estimator {
	t.Helper()
	e := New(fx.scorer, Params{
		Epsilon:    0.1,
		Confidence: 0.95,
		Fractions:  []float64{0.05, 0.25},
		MinRows:    32,
	})
	if e == nil {
		t.Fatal("New returned nil for a supported task")
	}
	return e
}

// TestIntervalCoverage is the empirical coverage property test: across
// constant, heavy-tailed and bimodal aggregate-value distributions, the
// exact influence must lie inside the estimator's interval at every ladder
// level. The bounds are finite-sample-valid with joint coverage ≥ 95%, and
// empirical Bernstein is conservative on top of that, so with fixed seeds
// the test demands zero violations.
func TestIntervalCoverage(t *testing.T) {
	for _, dist := range []string{"constant", "heavy", "bimodal"} {
		t.Run(dist, func(t *testing.T) {
			fx := buildFixture(t, dist, aggregate.Sum{}, 150)
			est := newTestEstimator(t, fx)
			for _, p := range fx.preds {
				exact := fx.scorer.Influence(p)
				for level := 0; level < est.Levels(); level++ {
					iv := est.Influence(p, level)
					if exact < iv.Lo-1e-9 || exact > iv.Hi+1e-9 {
						t.Fatalf("%s level %d: exact influence %v outside [%v, %v] for %s",
							dist, level, exact, iv.Lo, iv.Hi, p.Key())
					}
				}
			}
		})
	}
}

// TestIntervalCoverageCount repeats the coverage property for COUNT, the
// other linear-Δ aggregate (values are implicit 1s; the zero-match tail and
// indicator Bernstein carry the whole interval).
func TestIntervalCoverageCount(t *testing.T) {
	fx := buildFixture(t, "constant", aggregate.Count{}, 100)
	est := newTestEstimator(t, fx)
	for _, p := range fx.preds {
		exact := fx.scorer.Influence(p)
		for level := 0; level < est.Levels(); level++ {
			iv := est.Influence(p, level)
			if exact < iv.Lo-1e-9 || exact > iv.Hi+1e-9 {
				t.Fatalf("level %d: exact influence %v outside [%v, %v] for %s",
					level, exact, iv.Lo, iv.Hi, p.Key())
			}
		}
	}
}

// TestOutlierIntervalBoundsObjective checks the pruning shortcut's
// soundness: λ·OutlierInterval.Hi — computed from the outlier strata alone —
// must upper-bound the full objective, because the hold-out penalty only
// subtracts.
func TestOutlierIntervalBoundsObjective(t *testing.T) {
	fx := buildFixture(t, "bimodal", aggregate.Sum{}, 100)
	est := newTestEstimator(t, fx)
	lambda := fx.task.Lambda
	for _, p := range fx.preds {
		exact := fx.scorer.Influence(p)
		for level := 0; level < est.Levels(); level++ {
			out := est.OutlierInterval(p, level)
			if upper := lambda * out.Hi; exact > upper+1e-9 {
				t.Fatalf("level %d: objective %v exceeds outlier-only upper bound %v for %s",
					level, exact, upper, p.Key())
			}
		}
	}
}

// TestEstimatorDeterministic: two estimators over the same scorer and params
// produce bit-identical intervals — the sample shuffles are seeded per
// (generation, group), never by global randomness.
func TestEstimatorDeterministic(t *testing.T) {
	fx := buildFixture(t, "heavy", aggregate.Sum{}, 60)
	a := newTestEstimator(t, fx)
	b := newTestEstimator(t, fx)
	for _, p := range fx.preds {
		for level := 0; level < a.Levels(); level++ {
			ia, ib := a.Influence(p, level), b.Influence(p, level)
			if ia != ib {
				t.Fatalf("level %d: intervals differ across estimators: %+v vs %+v", level, ia, ib)
			}
		}
	}
}

// TestScoreLadder drives Score directly: against a -Inf threshold every
// candidate escalates to its exact influence; against a +Inf threshold every
// candidate is pruned with an upper bound no smaller than its exact score
// would allow.
func TestScoreLadder(t *testing.T) {
	fx := buildFixture(t, "bimodal", aggregate.Sum{}, 60)
	est := newTestEstimator(t, fx)
	for _, p := range fx.preds {
		exact := fx.scorer.Influence(p)
		got, pruned := est.Score(p, math.Inf(-1))
		if pruned || got != exact {
			t.Fatalf("Score at -Inf threshold: got (%v, %v), want exact %v unpruned", got, pruned, exact)
		}
		upper, pruned := est.Score(p, math.Inf(1))
		if !pruned {
			t.Fatalf("Score at +Inf threshold did not prune %s", p.Key())
		}
		if exact > upper+1e-9 {
			t.Fatalf("pruning bound %v below exact %v for %s", upper, exact, p.Key())
		}
	}
}

// TestNewDeclinesUnsupported: AVG and a non-positive epsilon both fall
// back to the exact path via a nil estimator.
func TestNewDeclinesUnsupported(t *testing.T) {
	fx := buildFixture(t, "constant", aggregate.Sum{}, 1)
	if e := New(fx.scorer, Params{Epsilon: 0}); e != nil {
		t.Error("New accepted epsilon 0")
	}

	avgTask := *fx.task
	avgTask.Agg = aggregate.Avg{}
	avgScorer, err := influence.NewScorer(&avgTask)
	if err != nil {
		t.Fatal(err)
	}
	if e := New(avgScorer, Params{Epsilon: 0.1}); e != nil {
		t.Error("New accepted an AVG task")
	}
}
