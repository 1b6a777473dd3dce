package mc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// mcFixture is one table an MC run searches: its task at a given λ and c,
// its space and the run's params.
type mcFixture struct {
	name   string
	task   func(lambda, c float64) *influence.Task
	space  *predicate.Space
	params Params
}

// synthFixtures are SYNTH 2-D and 3-D, Easy and Hard, under SUM and
// COUNT(*).
func synthFixtures(t *testing.T) []mcFixture {
	var out []mcFixture
	for _, dims := range []int{2, 3} {
		for _, mu := range []float64{80, 30} {
			ds := synth.Generate(synth.Config{Dims: dims, TuplesPerGroup: 120, Groups: 5, OutlierGroups: 2, Mu: mu, Seed: int64(dims)})
			sum, space, err := eval.SynthTask(ds, "sum", 0.5, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, countStar := range []bool{false, true} {
				name := fmt.Sprintf("synth %dD mu=%v sum", dims, mu)
				if countStar {
					name = fmt.Sprintf("synth %dD mu=%v count(*)", dims, mu)
				}
				out = append(out, mcFixture{name: name, space: space, task: func(lambda, c float64) *influence.Task {
					task := *sum
					task.Lambda, task.C = lambda, c
					if countStar {
						task.Agg, task.AggCol = aggregate.Count{}, -1
					}
					return &task
				}})
			}
		}
	}
	return out
}

// oddFixture is a table MC's units meet edge cases on: a discrete column
// with 100 codes, so that units on codes past 63 are no Box and fold row
// by row, and two continuous columns with NaN and ±Inf cells: one gridded
// over its data, whose infinite extent leaves it no non-empty unit, and one
// over a finite override domain, whose units meet the non-finite cells.
func oddFixture(t *testing.T) mcFixture {
	schema := relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.Discrete},
		relation.Column{Name: "d", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "y", Kind: relation.Continuous},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	rng := rand.New(rand.NewSource(9))
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	groups := []string{"o1", "o2", "h1", "h2"}
	for i := 0; i < 800; i++ {
		g := groups[i/200]
		code := rng.Intn(100)
		x, y := rng.Float64()*100, rng.Float64()*100
		if i%17 == 0 {
			x = odd[i%3]
		}
		if i%13 == 0 {
			y = odd[(i/13)%3]
		}
		v := 10 + rng.Float64()*5
		if g[0] == 'o' && code >= 70 && y > 40 {
			v += 60
		}
		b.MustAppend(relation.Row{relation.S(g), relation.S(fmt.Sprintf("c%03d", code)), relation.F(x), relation.F(y), relation.F(v)})
	}
	tbl := b.Build()
	rows := func(lo, hi int) *relation.RowSet {
		s := relation.NewRowSet(tbl.NumRows())
		for r := lo; r < hi; r++ {
			s.Add(r)
		}
		return s
	}
	space, err := predicate.NewSpace(tbl, []string{"d", "x", "y"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	yCol := tbl.Schema().MustIndex("y")
	return mcFixture{
		name:   "odd",
		space:  space,
		params: Params{Bins: 6, Domains: map[int]predicate.Domain{yCol: {Lo: 0, Hi: 100}}},
		task: func(lambda, c float64) *influence.Task {
			return &influence.Task{
				Table: tbl, Agg: aggregate.Sum{}, AggCol: tbl.Schema().MustIndex("v"), Lambda: lambda, C: c,
				Outliers: []influence.Group{{Key: "o1", Rows: rows(0, 200), Direction: influence.TooHigh}, {Key: "o2", Rows: rows(200, 400), Direction: influence.TooHigh}},
				HoldOuts: []influence.Group{{Key: "h1", Rows: rows(400, 600)}, {Key: "h2", Rows: rows(600, 800)}},
			}
		},
	}
}

// TestUnitsMatchPartsMatched: every unit MC scores through its lattice —
// generation 1 and every intersection round, pruned as a run prunes them —
// has the score λ·outMean − (1−λ)·holdPenalty and the outlier mean of
// Scorer.PartsMatched on its predicate, bit for bit, for SYNTH 2-D/3-D
// Easy/Hard under SUM and COUNT(*) and for a table with codes past 63 and
// NaN/±Inf cells, at c ∈ {0, 0.2, 0.5, 1} and λ ∈ {0.5, 1}.
func TestUnitsMatchPartsMatched(t *testing.T) {
	fixtures := append(synthFixtures(t), oddFixture(t))
	unboxed := 0
	for _, fx := range fixtures {
		for _, c := range []float64{0, 0.2, 0.5, 1} {
			for _, lambda := range []float64{0.5, 1} {
				task := fx.task(lambda, c)
				scorer, err := influence.NewScorer(task)
				if err != nil {
					t.Fatal(err)
				}
				m := &runner{scorer: scorer, space: fx.space, params: fx.params.withDefaults(), task: task,
					pool: partition.NewPool(context.Background(), 1), lat: scorer.NewLattice(fx.space)}
				m.init()
				if len(m.units) == 0 {
					t.Fatalf("%s: no units", fx.name)
				}
				for gen := 0; gen < len(fx.space.Columns()) && len(m.units) > 0; gen++ {
					if gen > 0 {
						m.units = m.intersect(m.units)
						m.scoreUnits()
					}
					best := math.Inf(-1)
					for _, u := range m.units {
						outMean, hold := scorer.Parts(u.pred)
						score := lambda*outMean - (1-lambda)*hold
						if math.Float64bits(u.score) != math.Float64bits(score) || math.Float64bits(u.outMean) != math.Float64bits(outMean) {
							t.Fatalf("%s c=%v λ=%v generation %d %v: unit (score %v, outMean %v), PartsMatched (%v, %v)",
								fx.name, c, lambda, gen+1, u.pred, u.score, u.outMean, score, outMean)
						}
						if !u.boxed {
							unboxed++
						}
						best = max(best, u.score)
					}
					m.units = m.prune(m.units, best)
				}
			}
		}
	}
	if unboxed == 0 {
		t.Fatal("no unit took the unboxed PartsMatched fallback")
	}
}

// outlierBits is the reference for a unit's bitset: Predicate.Eval over
// g_O, laid out as Lattice.OutlierBits lays the outlier groups out — each
// group's rows in ascending order from a word boundary.
func outlierBits(task *influence.Task, p predicate.Predicate) []uint64 {
	rows := p.Eval(task.Table.Data(), task.OutlierUnion())
	var out []uint64
	for _, g := range task.Outliers {
		words := make([]uint64, (g.Rows.Count()+63)/64)
		i := 0
		g.Rows.ForEach(func(r int) {
			if rows.Contains(r) {
				words[i>>6] |= 1 << uint(i&63)
			}
			i++
		})
		out = append(out, words...)
	}
	return out
}

// TestUnitBitsMatchEval: every unit MC keeps a bitset for — generation 1
// and every intersection round, pruned as a run prunes them — holds exactly
// Predicate.Eval's rows of g_O, as does Lattice.OutlierBits of the unit's
// predicate itself, and line 15 keeps exactly the units whose
// Eval rows lie inside some winner's, by RowSet Intersect and Equal. The
// winners are each generation's top three merged candidates. It runs SYNTH
// 2-D/3-D Easy/Hard under SUM and COUNT(*), and a table with codes past 63
// and NaN/±Inf cells, whose units no Box holds are tested row by row, at
// c ∈ {0, 0.5}.
func TestUnitBitsMatchEval(t *testing.T) {
	fixtures := append(synthFixtures(t), oddFixture(t))
	var unboxed, kept, dropped int
	for _, fx := range fixtures {
		for _, c := range []float64{0, 0.5} {
			task := fx.task(0.5, c)
			scorer, err := influence.NewScorer(task)
			if err != nil {
				t.Fatal(err)
			}
			m := &runner{scorer: scorer, space: fx.space, params: fx.params.withDefaults(), task: task,
				pool: partition.NewPool(context.Background(), 1), lat: scorer.NewLattice(fx.space)}
			m.init()
			merger := merge.New(scorer, fx.space, merge.Params{}).WithLattice(m.lat)
			gO := task.OutlierUnion()
			for gen := 0; gen < len(fx.space.Columns()) && len(m.units) > 0; gen++ {
				if gen > 0 {
					m.units = m.intersect(m.units)
					m.scoreUnits()
				}
				best := math.Inf(-1)
				for _, u := range m.units {
					want := outlierBits(task, u.pred)
					if !slices.Equal(u.out, want) {
						t.Fatalf("%s c=%v generation %d %v: bitset %x, Eval %x", fx.name, c, gen+1, u.pred, u.out, want)
					}
					if direct := m.lat.OutlierBits(u.box, u.boxed, u.pred); !slices.Equal(direct, want) {
						t.Fatalf("%s c=%v generation %d %v: OutlierBits %x, Eval %x", fx.name, c, gen+1, u.pred, direct, want)
					}
					if !u.boxed {
						unboxed++
					}
					best = max(best, u.score)
				}
				m.units = m.prune(m.units, best)
				cands := make([]partition.Candidate, len(m.units))
				for i, u := range m.units {
					cands[i] = partition.Candidate{Pred: u.pred, Score: u.score}
				}
				winners := merger.Merge(cands)
				partition.SortByScore(winners)
				winners = winners[:min(3, len(winners))]
				var want []string
				for _, u := range m.units {
					rows := u.pred.Eval(task.Table.Data(), gO)
					for _, w := range winners {
						if rows.Intersect(w.Pred.Eval(task.Table.Data(), gO)).Equal(rows) {
							want = append(want, u.pred.Key())
							break
						}
					}
				}
				got := m.contained(m.units, winners)
				var gotKeys []string
				for _, u := range got {
					gotKeys = append(gotKeys, u.pred.Key())
				}
				if !slices.Equal(gotKeys, want) {
					t.Fatalf("%s c=%v generation %d: line 15 keeps %v, the row-set reference %v", fx.name, c, gen+1, gotKeys, want)
				}
				kept += len(got)
				dropped += len(m.units) - len(got)
				m.units = got
			}
		}
	}
	if unboxed == 0 || kept == 0 || dropped == 0 {
		t.Fatalf("unboxed units %d, kept %d, dropped %d: each must be positive", unboxed, kept, dropped)
	}
	t.Logf("unboxed units %d; line 15 kept %d and dropped %d", unboxed, kept, dropped)
}
