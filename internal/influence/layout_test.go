package influence

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// subsetTable lays out one group per size, rows interleaved, plus a
// hold-out group of 9 rows after them. About half the values carry ±offset:
// a sub-mask of the small rows then folds its Δ as a difference of two
// sums near the offset, which is where finish's rounding is worst. A
// non-zero special replaces the first outlier row's value.
func subsetTable(rng *rand.Rand, offset float64, sizes []int, special float64) (*relation.Table, []*relation.RowSet) {
	b := relation.NewBuilder(relation.MustSchema(relation.Column{Name: "v", Kind: relation.Continuous}))
	sets := make([]*relation.RowSet, len(sizes)+1)
	total := 9
	for _, n := range sizes {
		total += n
	}
	for g := range sets {
		sets[g] = relation.NewRowSet(total)
	}
	left := append(append([]int(nil), sizes...), 9)
	for row := 0; row < total; row++ {
		g := rng.Intn(len(left))
		for left[g] == 0 {
			g = (g + 1) % len(left)
		}
		left[g]--
		v := rng.NormFloat64() * 10
		if rng.Intn(2) == 0 {
			v += offset * float64(1-2*rng.Intn(2))
		}
		if g == 0 && special != 0 {
			v, special = special, 0 // the first row of the first outlier group
		}
		b.MustAppend(relation.Row{relation.F(v)})
		sets[g].Add(row)
	}
	return b.Build(), sets
}

// TestSubsetBoundCoversExtensions: SubsetBound(prefix) is at least Bound
// of every sub-mask of the prefix, the empty one included, for SUM, COUNT
// and count(*), both directions, c in {0, 0.2, 0.5, 1}, λ in {0, 0.5, 1},
// on values offset by 0, 1e9 and 1e15. The groups hold at most 12 rows, so
// every sub-mask is enumerated. AVG, the variance family and black-box
// aggregates report no bound, and neither does SUM over a non-finite value
// or over sums that could overflow; COUNT, whose Δ never reads a value,
// keeps its bound.
func TestSubsetBoundCoversExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	aggs := []struct {
		name string
		f    aggregate.Func
		col  int
	}{{"sum", aggregate.Sum{}, 0}, {"count", aggregate.Count{}, 0}, {"count(*)", aggregate.Count{}, -1}}
	layoutOf := func(tbl *relation.Table, sets []*relation.RowSet, agg aggregate.Func, col int, dir Direction, lambda, c float64) *Layout {
		task := &Task{Table: tbl, Agg: agg, AggCol: col, Lambda: lambda, C: c,
			HoldOuts: []Group{{Key: "h", Rows: sets[len(sets)-1]}}}
		for g, rows := range sets[:len(sets)-1] {
			task.Outliers = append(task.Outliers, Group{Key: fmt.Sprint(g), Rows: rows, Direction: dir * Direction(1-2*(g%2))})
		}
		s, err := NewScorer(task)
		if err != nil {
			t.Fatal(err)
		}
		return s.NewLayout()
	}
	checked := 0
	for _, offset := range []float64{0, 1e9, 1e15} {
		for _, sizes := range [][]int{{12}, {5, 7}} {
			tbl, sets := subsetTable(rng, offset, sizes, 0)
			for _, agg := range aggs {
				for _, dir := range []Direction{TooHigh, TooLow} {
					for _, c := range []float64{0, 0.2, 0.5, 1} {
						for _, lambda := range []float64{0, 0.5, 1} {
							l := layoutOf(tbl, sets, agg.f, agg.col, dir, lambda, c)
							name := fmt.Sprintf("offset=%g sizes=%v %s dir=%v c=%v λ=%v", offset, sizes, agg.name, dir, c, lambda)
							if !l.SubsetBounded() {
								t.Fatalf("%s: no subset bound", name)
							}
							for trial := 0; trial < 4; trial++ {
								prefix := make([][]uint64, l.Groups())
								for g := range prefix {
									prefix[g] = make([]uint64, l.Words(g))
									if g < len(sizes) {
										full := uint64(1)<<sizes[g] - 1
										prefix[g][0] = full
										if trial > 0 {
											prefix[g][0] &= rng.Uint64()
										}
									}
								}
								bound := l.SubsetBound(prefix)
								if math.IsInf(bound, 0) || math.IsNaN(bound) {
									t.Fatalf("%s: bound %v", name, bound)
								}
								checked += coverSubMasks(t, l, prefix, len(sizes), bound, name)
							}
						}
					}
				}
			}
		}
	}
	if checked < 100000 {
		t.Fatalf("only %d sub-masks checked", checked)
	}

	// No bound where Δ is not a sum of per-row terms.
	tbl, sets := subsetTable(rng, 0, []int{12}, 0)
	for _, name := range []string{"avg", "variance", "stddev", "median", "min", "max"} {
		agg, err := aggregate.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if l := layoutOf(tbl, sets, agg, 0, TooHigh, 0.5, 0.2); l.SubsetBounded() || !math.IsInf(l.SubsetBound(make([][]uint64, l.Groups())), 1) {
			t.Errorf("%s reports a subset bound", name)
		}
	}
	uda := aggregate.UDA{FuncName: "sum2", Fn: aggregate.Sum{}.Compute, IsIndependent: true}
	if l := layoutOf(tbl, sets, uda, 0, TooHigh, 0.5, 0.2); l.SubsetBounded() {
		t.Error("a black-box aggregate reports a subset bound")
	}
	// No bound for SUM over a non-finite value or an overflowing sum of |v|;
	// COUNT keeps its bound over the same values.
	for _, special := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64} {
		tbl, sets := subsetTable(rng, 0, []int{5, 7}, special)
		if l := layoutOf(tbl, sets, aggregate.Sum{}, 0, TooHigh, 0.5, 0.2); l.SubsetBounded() {
			t.Errorf("sum with a %v value reports a subset bound", special)
		}
		if l := layoutOf(tbl, sets, aggregate.Count{}, 0, TooHigh, 0.5, 0.2); !l.SubsetBounded() {
			t.Errorf("count with a %v value reports no subset bound", special)
		}
	}
}

// coverSubMasks checks Bound ≤ bound on every combination of sub-masks of
// the first nOut masks of prefix (the others stay empty) and returns how
// many it checked.
func coverSubMasks(t *testing.T, l *Layout, prefix [][]uint64, nOut int, bound float64, name string) int {
	t.Helper()
	sub := make([][]uint64, len(prefix))
	for g := range sub {
		sub[g] = make([]uint64, len(prefix[g]))
	}
	checked := 0
	var walk func(g int)
	walk = func(g int) {
		if g == nOut {
			checked++
			if b := l.Bound(sub); !(b <= bound) {
				t.Fatalf("%s: Bound %v of sub-mask %x exceeds SubsetBound %v of prefix %x", name, b, sub[:nOut], bound, prefix[:nOut])
			}
			return
		}
		p := prefix[g][0]
		for s := p; ; s = (s - 1) & p {
			sub[g][0] = s
			walk(g + 1)
			if s == 0 {
				return
			}
		}
	}
	walk(0)
	return checked
}
