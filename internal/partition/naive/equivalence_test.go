package naive

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
func mixedFixture(seed int64, agg aggregate.Func, aggCol bool) (*influence.Task, *predicate.Space) {
	return hostileFixture(seed, agg, aggCol, "")
}

// hostileFixture is mixedFixture with hostile values: "nan" makes every
// 37th aggregate value and every 41st x NaN, "inf" every 37th value ±Inf
// and every 41st x +Inf, "1e300" every 29th value ±1e300, and "offset"
// adds 1e9 to every value, where SUM's sums cancel.
func hostileFixture(seed int64, agg aggregate.Func, aggCol bool, hostile string) (*influence.Task, *predicate.Space) {
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
		code, x := rng.Intn(4), rng.Float64()*50 // drawn in mixedFixture's order
		switch {
		case hostile == "nan" && i%37 == 0:
			v = math.NaN()
		case hostile == "nan" && i%41 == 0:
			x = math.NaN()
		case hostile == "inf" && i%37 == 0:
			v = math.Inf(1 - 2*(i%2))
		case hostile == "inf" && i%41 == 0:
			x = math.Inf(1)
		case hostile == "1e300" && i%29 == 0:
			v = 1e300 * float64(1-2*(i%2))
		case hostile == "offset":
			v += 1e9
		}
		b.MustAppend(relation.Row{
			relation.S(fmt.Sprintf("c%d", code)),
			relation.F(x),
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

// regionFixture plants two high-valued regions that no single attribute
// isolates, d = c0 ∧ y < 2.5 (values near 30) and d = c7 ∧ x < 12.5 (near
// 35), in a table of values near −20 (near 4 where x ≥ 37.5 for the other
// codes) over four groups; the grid edges fall on every region boundary.
// At λ = 1 and c = 0 the best subset of d = c7's rows is the second region,
// so that prefix's bound is nearly the score of its best extension, the
// best predicate, 3.3 % above the first region's, which has set the floor
// by the time the prefix is met. A bound scaled by 0.95 skips the best
// predicate.
func regionFixture() (*influence.Task, *predicate.Space, Params) {
	rng := rand.New(rand.NewSource(23))
	schema := relation.MustSchema(
		relation.Column{Name: "d", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "y", Kind: relation.Continuous},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	const n = 1200
	groups := make([]*relation.RowSet, 4)
	for g := range groups {
		groups[g] = relation.NewRowSet(n)
	}
	for i := 0; i < n; i++ {
		d, x, y := rng.Intn(8), rng.Float64()*50, rng.Float64()*10
		if i < 8 {
			d = i // codes, and so the enumeration, in the order c0 … c7
		}
		v := rng.NormFloat64() - 20
		switch {
		case d == 0 && y < 2.5:
			v += 50
		case d == 7 && x < 12.5:
			v += 55
		case x >= 37.5 && d != 0 && d != 7:
			v += 24 // keeps the prefixes between the two from being skipped early
		}
		groups[rng.Intn(4)].Add(i)
		b.MustAppend(relation.Row{relation.S(fmt.Sprintf("c%d", d)), relation.F(x), relation.F(y), relation.F(v)})
	}
	tbl := b.Build()
	task := &influence.Task{
		Table: tbl, Agg: aggregate.Sum{}, AggCol: 3,
		Outliers: []influence.Group{{Key: "0", Rows: groups[0], Direction: influence.TooHigh}, {Key: "1", Rows: groups[1], Direction: influence.TooHigh}},
		HoldOuts: []influence.Group{{Key: "2", Rows: groups[2]}, {Key: "3", Rows: groups[3]}},
		Lambda:   1, C: 0,
	}
	space, err := predicate.NewSpace(tbl, []string{"d", "x", "y"}, nil)
	if err != nil {
		panic(err)
	}
	params := Params{Bins: 12, MaxClauses: 2, MaxDiscreteSubset: 1, TopK: 1,
		Domains: map[int]predicate.Domain{1: {Lo: 0, Hi: 50}, 2: {Lo: 0, Hi: 10}}}
	return task, space, params
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

// subtree gate expectations of a fixture.
const (
	// skipsAny: the gate may skip subtrees or not.
	skipsAny = iota
	// skipsSome: a SUM or COUNT fixture whose floor rises above the best-
	// subset bound of some prefix; the gate must skip at least one subtree.
	skipsSome
	// skipsNone: nothing can be skipped, so Enumerated equals the
	// reference's. No bound exists for AVG, the variance family, black-box
	// aggregates and SUM over a non-finite value; and where one exists it is
	// never below 0, so a floor below 0 (all scores negative, or λ = 0)
	// skips nothing either.
	skipsNone
)

// TestNaiveClauseSelectionEquivalence holds the gated clause-table search
// to the ungated reference, serially and with 2 and 4 workers: the same
// predicates with the same score bits in the same order. Scorer calls, gate
// counts, skipped subtrees and Enumerated are the same for every worker
// count. Enumerated counts the conjunctions scored, never more than the
// reference enumerates, and scorer calls are exactly Enumerated × groups
// less the hold-out scans the gate skipped. The adversarial fixtures put
// the floor below zero (every score negative), put thousands of exact ties
// at the floor (only the enumeration order decides), take λ to 0 and 1,
// score count(*), and feed NaN, ±Inf, ±1e300 and 1e9-offset values.
func TestNaiveClauseSelectionEquivalence(t *testing.T) {
	type fixture struct {
		name   string
		build  func() (*influence.Task, *predicate.Space)
		params Params
		// gates: the enumeration outlasts the floor's lag, and the gate
		// must skip hold-out scans (at λ = 0 the bound is 0 and gates
		// nothing; the penalty still sinks predicates early).
		gates bool
		// subtrees is what the subtree gate must do: skipsAny, skipsSome
		// or skipsNone.
		subtrees int
		// shape, when set, checks the reference top-k is what the fixture
		// is there for.
		shape func(top []partition.Candidate) bool
	}
	fixtures := []fixture{
		{"synth-sum", func() (*influence.Task, *predicate.Space) {
			s, space, _ := smallSetup(t, 0.1)
			return s.Task(), space
		}, Params{Bins: 7}, true, skipsSome, nil},
		{"discrete-avg", func() (*influence.Task, *predicate.Space) {
			f := buildDiscreteTask(t)
			return f.task, f.space
		}, Params{}, false, skipsNone, nil},
	}
	for _, agg := range []aggregate.Func{aggregate.Sum{}, aggregate.StdDev{}, aggregate.Median{}} {
		agg := agg
		// SUM's prefixes' best subsets stay above the floor: the subtrees
		// the gate could skip are the size-2 pass's prefixes with no
		// discrete attribute left, which that pass no longer enters.
		subtrees := skipsNone
		fixtures = append(fixtures, fixture{
			"mixed-" + agg.Name(),
			func() (*influence.Task, *predicate.Space) { return mixedFixture(11, agg, true) },
			Params{Bins: 4, MaxDiscreteSubset: 2, TopK: 12}, true, subtrees, nil,
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
			Params{Bins: 4, MaxDiscreteSubset: 2, TopK: 12}, true, []int{skipsNone, skipsSome}[int(lambda)], nil,
		})
	}
	fixtures = append(fixtures,
		fixture{"mixed-count-star",
			func() (*influence.Task, *predicate.Space) { return mixedFixture(5, aggregate.Count{}, false) },
			Params{Bins: 3, MaxClauses: 2}, false, skipsAny, nil},
		fixture{"mixed-count-star-wide",
			func() (*influence.Task, *predicate.Space) { return mixedFixture(5, aggregate.Count{}, false) },
			Params{Bins: 4, MaxDiscreteSubset: 2, TopK: 12}, true, skipsAny, nil},
		// Every conjunction removes positive values from both too-low
		// outliers: every score, and so the floor, is negative.
		fixture{"all-negative-sum",
			func() (*influence.Task, *predicate.Space) {
				return pairFixture(3, aggregate.Sum{}, true, influence.TooLow, 0.5, 0.2)
			},
			Params{MaxDiscreteSubset: 2, TopK: 12}, true, skipsNone,
			func(top []partition.Candidate) bool { return top[0].Score < 0 }},
		// count(*) at c = 0 scores a conjunction of |S| × |T| codes at
		// |S|·|T|/2: thousands of exact ties, the best of them at the floor.
		fixture{"ties-count-star",
			func() (*influence.Task, *predicate.Space) {
				return pairFixture(3, aggregate.Count{}, false, influence.TooHigh, 0.5, 0)
			},
			Params{MaxDiscreteSubset: 2, TopK: 12}, true, skipsAny, allTied},
		fixture{"ties-count-star-lambda=1",
			func() (*influence.Task, *predicate.Space) {
				return pairFixture(3, aggregate.Count{}, false, influence.TooHigh, 1, 0)
			},
			Params{MaxDiscreteSubset: 2, TopK: 5}, true, skipsSome, allTied},
	)
	region, regionSpace, regionParams := regionFixture()
	fixtures = append(fixtures, fixture{"region-sum",
		func() (*influence.Task, *predicate.Space) { return region, regionSpace },
		regionParams, true, skipsSome,
		func(top []partition.Candidate) bool { return len(top[0].Pred.Clauses()) == 2 }})
	// Hostile values. SUM over NaN or ±Inf has no bound, and its NaN scores
	// gate nothing; ±1e300 and a 1e9 offset keep the bound, with a slack to
	// match, and COUNT never reads a value.
	for _, h := range []struct {
		hostile  string
		agg      aggregate.Func
		gates    bool
		subtrees int
	}{
		{"nan", aggregate.Sum{}, false, skipsNone},
		{"inf", aggregate.Sum{}, false, skipsNone},
		{"1e300", aggregate.Sum{}, true, skipsSome},
		{"offset", aggregate.Sum{}, true, skipsSome},
		{"nan", aggregate.Count{}, true, skipsSome},
	} {
		h := h
		fixtures = append(fixtures, fixture{
			fmt.Sprintf("hostile-%s-%s", h.hostile, h.agg.Name()),
			func() (*influence.Task, *predicate.Space) {
				task, space := hostileFixture(17, h.agg, true, h.hostile)
				task.Lambda = 1
				return task, space
			},
			Params{Bins: 4, MaxDiscreteSubset: 2, TopK: 8}, h.gates, h.subtrees, nil,
		})
	}

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
		groups := int64(len(task.Outliers) + len(task.HoldOuts))
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
			calls := scorer.Calls()
			t.Logf("%s: enumerated %d of %d, %d subtrees skipped, %d calls", name, got.Enumerated, want.Enumerated, got.SkippedSubtrees, calls)
			if first == nil {
				first, firstCalls = got, calls
				if got.Enumerated > want.Enumerated || calls != got.Enumerated*groups-got.SkippedHoldOuts {
					t.Errorf("%s: %d scorer calls, enumerated %d (reference %d) × %d groups less %d skipped hold-out scans",
						name, calls, got.Enumerated, want.Enumerated, groups, got.SkippedHoldOuts)
				}
				if f.gates && got.SkippedHoldOuts == 0 {
					t.Errorf("%s: the gate never skipped a hold-out scan", name)
				}
				switch {
				case f.subtrees == skipsSome && got.SkippedSubtrees == 0:
					t.Errorf("%s: the subtree gate never skipped", name)
				case f.subtrees == skipsNone && (got.SkippedSubtrees != 0 || got.Enumerated != want.Enumerated):
					t.Errorf("%s: %d subtrees skipped, enumerated %d of %d", name, got.SkippedSubtrees, got.Enumerated, want.Enumerated)
				}
			} else if calls != firstCalls || got.Gated != first.Gated || got.SkippedHoldOuts != first.SkippedHoldOuts ||
				got.SkippedSubtrees != first.SkippedSubtrees || got.Enumerated != first.Enumerated {
				t.Errorf("%s: calls/gated/skipped/subtrees/enumerated %d/%d/%d/%d/%d, one worker %d/%d/%d/%d/%d", name,
					calls, got.Gated, got.SkippedHoldOuts, got.SkippedSubtrees, got.Enumerated,
					firstCalls, first.Gated, first.SkippedHoldOuts, first.SkippedSubtrees, first.Enumerated)
			}
			if len(got.TopK) != len(want.TopK) {
				t.Fatalf("%s: %d candidates, reference %d", name, len(got.TopK), len(want.TopK))
			}
			for i := range want.TopK {
				g, w := got.TopK[i], want.TopK[i]
				// Keys, unlike Equal, match a NaN bound (the "inf" fixture's
				// first bin edge) to itself.
				if g.Pred.Key() != w.Pred.Key() || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
					t.Fatalf("%s: rank %d is %v (%v), reference %v (%v)", name, i, g.Pred, g.Score, w.Pred, w.Score)
				}
			}
		}
	}
}

// TestDiscretePassPrune: a discrete-subset pass that stops descending into
// prefixes with no discrete attribute left hands the sink the same
// conjunctions with the same sequence numbers as one that walks every
// prefix, and asks the subtree gate about fewer prefixes.
func TestDiscretePassPrune(t *testing.T) {
	task, space := mixedFixture(11, aggregate.Sum{}, true)
	scorer, err := influence.NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{Bins: 4, MaxDiscreteSubset: 2}.withDefaults()
	walk := func(prune bool) (emitted []string, asked int) {
		e, maxCard, maxClauses, err := newEnumerator(partition.NewPool(context.Background(), 1), scorer, space, params)
		if err != nil {
			t.Fatal(err)
		}
		if e.lastDiscrete < 0 || e.lastDiscrete == len(e.sets)-1 || maxCard < 2 {
			t.Fatalf("fixture: last discrete attribute %d of %d, %d passes", e.lastDiscrete, len(e.sets), maxCard)
		}
		if !prune {
			e.lastDiscrete = len(e.sets) // a discrete attribute is always left
		}
		e.skip = func(conj) bool { asked++; return false }
		e.sink = func(c conj, seq int64) { emitted = append(emitted, fmt.Sprint(seq, c)) }
		e.run(maxCard, maxClauses)
		return emitted, asked
	}
	got, gotAsked := walk(true)
	want, wantAsked := walk(false)
	if !slices.Equal(got, want) {
		t.Fatalf("pruned passes emitted %d conjunctions, the full walk %d, or in another order", len(got), len(want))
	}
	if gotAsked >= wantAsked {
		t.Errorf("pruned passes asked the gate about %d prefixes, the full walk %d", gotAsked, wantAsked)
	}
	t.Logf("%d conjunctions; gate asked %d times, %d without the prune", len(got), gotAsked, wantAsked)
}
