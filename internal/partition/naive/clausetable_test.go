package naive

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// TestRangeAtomsMatchClauses holds the clause table's range atoms, built
// as the OR of single-bin atoms, to evaluating every range clause over the
// rows, word for word. The tables are random, with NaN and ±Inf search
// values; one attribute's grid comes from a Domains override, one has a
// degenerate (hi ≤ lo) extent, and two an infinite one, whose ranges do
// not tile and are evaluated one by one.
func TestRangeAtomsMatchClauses(t *testing.T) {
	tiled, untiled, degenerate := 0, 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		schema := relation.MustSchema(
			relation.Column{Name: "x", Kind: relation.Continuous},
			relation.Column{Name: "y", Kind: relation.Continuous},
			relation.Column{Name: "z", Kind: relation.Continuous},
			relation.Column{Name: "w", Kind: relation.Continuous},
			relation.Column{Name: "u", Kind: relation.Continuous},
			relation.Column{Name: "d", Kind: relation.Discrete},
			relation.Column{Name: "v", Kind: relation.Continuous},
		)
		b := relation.NewBuilder(schema)
		n := 150 + rng.Intn(200)
		groups := make([]*relation.RowSet, 3)
		for g := range groups {
			groups[g] = relation.NewRowSet(n)
		}
		// hostile(v, true) draws +Inf and −Inf, hostile(v, false) +Inf only:
		// a finite low end under an infinite high one leaves the first edge
		// NaN and the others +Inf, where bins and runs differ.
		hostile := func(v float64, both bool) float64 {
			switch rng.Intn(15) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				if both {
					return math.Inf(-1)
				}
			}
			return v
		}
		for i := 0; i < n; i++ {
			x := rng.Float64()*40 - 10
			if rng.Intn(20) == 0 {
				x = math.NaN()
			}
			b.MustAppend(relation.Row{
				relation.F(x),
				relation.F(hostile(rng.NormFloat64()*1e3, false)),
				relation.F(7.25),
				relation.F(math.Floor(rng.Float64() * 9)),
				relation.F(hostile(rng.Float64(), true)),
				relation.S(fmt.Sprintf("c%d", rng.Intn(3))),
				relation.F(rng.Float64()),
			})
			groups[rng.Intn(3)].Add(i)
		}
		tbl := b.Build()
		task := &influence.Task{
			Table: tbl, Agg: aggregate.Sum{}, AggCol: 6, Lambda: 0.5, C: 0.2,
			Outliers: []influence.Group{{Key: "0", Rows: groups[0], Direction: influence.TooHigh}, {Key: "1", Rows: groups[1], Direction: influence.TooLow}},
			HoldOuts: []influence.Group{{Key: "2", Rows: groups[2]}},
		}
		scorer, err := influence.NewScorer(task)
		if err != nil {
			t.Fatal(err)
		}
		space, err := predicate.NewSpace(tbl, []string{"x", "y", "z", "w", "u", "d"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		params := Params{Bins: 2 + rng.Intn(14), Domains: map[int]predicate.Domain{3: {Lo: -2.5, Hi: 6}}}
		sets, _, err := buildClauseSets(space, tbl, task.OutlierUnion(), params.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		tbl2 := newClauseTable(scorer, sets)
		layout := scorer.NewLayout()
		for a, set := range sets {
			if set.discrete {
				continue
			}
			switch {
			case set.bins == 0:
				untiled++
			case len(set.ranges) == 1:
				degenerate++
			default:
				tiled++
				if set.bins != params.Bins || len(set.ranges) != set.bins*(set.bins+1)/2 {
					t.Fatalf("seed %d %s: %d bins over %d ranges, want %d", seed, set.name, set.bins, len(set.ranges), params.Bins)
				}
			}
			for g := 0; g < layout.Groups(); g++ {
				w := layout.Words(g)
				want := make([]uint64, w)
				for k := range set.ranges {
					layout.ClauseMask(g, &set.ranges[k], want)
					if got := tbl2.atoms[a][g][k*w : (k+1)*w]; !slices.Equal(got, want) {
						t.Fatalf("seed %d %s group %d: atom of %v is %x, clause selects %x", seed, set.name, g, set.ranges[k], got, want)
					}
				}
			}
		}
	}
	if tiled == 0 || untiled == 0 || degenerate == 0 {
		t.Fatalf("tiled %d, untiled %d, degenerate %d attributes: every kind must occur", tiled, untiled, degenerate)
	}
}
