package merge_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/merge"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/partition/naive"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/shard"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// TestMergeAboveMatchesWhole: merges that score each round's attempts
// through Lattice.Above against the round's best, with upper bounds in
// their memo, give the candidates, in order and with the score and penalty
// bits, of the reference merge that scores every attempt whole, and so do
// merges over a scorer whose selection memo keeps the space's boxes, where
// each box is scored once, whole. The pools are those MC merges (its first
// two generations' grid units, scored, merged uncapped) and those the shard
// combine merges (a NAIVE search's top candidates, scored exactly through
// the merge's lattice and marked Exact, merged with a 16-round cap), over
// SYNTH 2-D and 3-D, SUM, AVG and COUNT, c and λ. On each kind of pool the
// partial folds, a declined box's second fold included, must save group
// folds against scoring each box once, whole.
func TestMergeAboveMatchesWhole(t *testing.T) {
	type tally struct{ above, whole int64 }
	folds := map[string]*tally{"mc": {}, "shard": {}}
	for _, dims := range []int{2, 3} {
		ds := synth.Generate(synth.Config{Dims: dims, TuplesPerGroup: 250, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: int64(dims)})
		for _, agg := range []string{"sum", "avg", "count"} {
			for _, c := range []float64{0, 0.5, 1} {
				for _, lambda := range []float64{0.5, 0.9} {
					task, space, err := eval.SynthTask(ds, agg, lambda, c)
					if err != nil {
						t.Fatal(err)
					}
					newScorer := func(memo bool) *influence.Scorer {
						s, err := influence.NewScorer(task)
						if err != nil {
							t.Fatal(err)
						}
						if memo {
							s.MemoizeSelections(space)
						}
						return s
					}
					ref := newScorer(false)
					units := gridUnits(task, space, 6)
					type input struct {
						kind, name string
						pool       []partition.Candidate
						params     merge.Params
					}
					inputs := []input{
						{"mc", "units", scored(ref, units[0]), merge.Params{}},
						{"mc", "2-D units", scored(ref, units[1]), merge.Params{}},
						{"shard", "naive top", exact(ref, space, naiveTop(t, ref, space)), merge.Params{MaxRounds: 16}},
					}
					for _, in := range inputs {
						name := fmt.Sprintf("%d-D %s c=%v λ=%v %s", dims, agg, c, lambda, in.name)
						want := merge.New(ref, space, in.params).RefMergeSeeded(in.pool, nil)
						for _, memo := range []bool{false, true} {
							s := newScorer(memo)
							before := s.Calls()
							got := merge.New(s, space, in.params).WithLattice(s.NewLattice(space)).Merge(in.pool)
							if memo {
								folds[in.kind].whole += s.Calls() - before
							} else {
								folds[in.kind].above += s.Calls() - before
							}
							sameCands(t, fmt.Sprintf("%s memo=%v", name, memo), got, want)
						}
					}
				}
			}
		}
	}
	for _, kind := range []string{"mc", "shard"} {
		f := folds[kind]
		t.Logf("%s pools: %d group folds through Above, %d whole", kind, f.above, f.whole)
		if f.above >= f.whole {
			t.Errorf("%s pools: merges folded %d groups through Above, %d whole: nothing was saved", kind, f.above, f.whole)
		}
	}
}

// gridUnits returns the grid units MC starts from, Bins equal-width cells of
// each column over the outlier rows' range, and their pairwise
// intersections: the pools of its first two generations.
func gridUnits(task *influence.Task, space *predicate.Space, bins int) [2][]predicate.Predicate {
	var cells [][]predicate.Clause
	for _, col := range space.Columns() {
		st := task.Table.FloatStats(col, task.OutlierUnion())
		width := (st.Max - st.Min) / float64(bins)
		var cs []predicate.Clause
		for i := range bins {
			lo, hi := st.Min+float64(i)*width, st.Min+float64(i+1)*width
			cs = append(cs, predicate.NewRangeClause(col, space.Name(col), lo, hi, i == bins-1))
		}
		cells = append(cells, cs)
	}
	var units [2][]predicate.Predicate
	for i, ci := range cells {
		for _, a := range ci {
			units[0] = append(units[0], predicate.MustNew(a))
			for _, cj := range cells[i+1:] {
				for _, b := range cj {
					units[1] = append(units[1], predicate.MustNew(a, b))
				}
			}
		}
	}
	return units
}

// scored is ps as MC's merge pool: each with its score.
func scored(s *influence.Scorer, ps []predicate.Predicate) []partition.Candidate {
	out := make([]partition.Candidate, len(ps))
	for i, p := range ps {
		out[i] = partition.Candidate{Pred: p, Score: s.Influence(p)}
	}
	return out
}

// naiveTop is a NAIVE search's top candidates over the whole table.
func naiveTop(t *testing.T, s *influence.Scorer, space *predicate.Space) []partition.Candidate {
	t.Helper()
	out, err := partition.RunSearch(context.Background(), 1,
		naive.NewSearcher(s, space, naive.Params{Bins: 5, TopK: shard.DefaultTopPerShard}))
	if err != nil {
		t.Fatal(err)
	}
	return out.Candidates
}

// exact is the combine's merge pool: cands scored exactly, marked Exact.
func exact(s *influence.Scorer, space *predicate.Space, cands []partition.Candidate) []partition.Candidate {
	lat, lambda := s.NewLattice(space), s.Task().Lambda
	out := make([]partition.Candidate, len(cands))
	for i, c := range cands {
		b, boxed := space.Box(c.Pred)
		sc := lat.Parts(b, boxed, c.Pred)
		out[i] = partition.Candidate{Pred: c.Pred, Score: lambda*sc.OutMean - (1-lambda)*sc.HoldPen,
			HoldPenalty: sc.HoldPen, Matched: sc.Matched, Exact: true}
	}
	return out
}

// sameCands fails unless got and want hold the same predicates, in order,
// with the same score and penalty bits.
func sameCands(t *testing.T, what string, got, want []partition.Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, whole-scoring reference %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Pred.Key() != w.Pred.Key() || math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.HoldPenalty) != math.Float64bits(w.HoldPenalty) {
			t.Fatalf("%s: candidate %d %v (%v, pen %v), whole-scoring reference %v (%v, pen %v)",
				what, i, g.Pred, g.Score, g.HoldPenalty, w.Pred, w.Score, w.HoldPenalty)
		}
	}
}
