package shard

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/partition/mc"
	"github.com/scorpiondb/scorpion/internal/partition/naive"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// referenceRefine is the combine's refine pass as a plain predicate climb:
// every move is a freshly built Predicate scored by Scorer.Influence, every
// step scores every move, and a kept climb is re-scored by Scorer.Parts.
func referenceRefine(c *Coordinator, scorer *influence.Scorer, cands []partition.Candidate) []partition.Candidate {
	if len(cands) < 2 {
		return cands
	}
	los := make(map[int][]float64)
	his := make(map[int][]hiBound)
	latticeFrom := cands
	if len(latticeFrom) > mergeTop {
		latticeFrom = latticeFrom[:mergeTop]
	}
	for _, cand := range latticeFrom {
		for _, cl := range cand.Pred.Clauses() {
			if cl.Kind != relation.Continuous {
				continue
			}
			los[cl.Col] = insertSorted(los[cl.Col], cl.Lo)
			his[cl.Col] = insertHi(his[cl.Col], hiBound{cl.Hi, cl.HiInc})
		}
	}
	for col, d := range c.domains {
		los[col] = insertSorted(los[col], d.Lo)
		his[col] = insertHi(his[col], hiBound{d.Hi, true})
		if bins := c.params.GridBins; bins > 1 && d.Hi > d.Lo {
			width := (d.Hi - d.Lo) / float64(bins)
			for i := 1; i < bins; i++ {
				edge := d.Lo + float64(i)*width
				los[col] = insertSorted(los[col], edge)
				his[col] = insertHi(his[col], hiBound{edge, false})
			}
		}
	}
	for col := range los {
		los[col] = thinFloats(los[col], maxLatticePerCol)
	}
	for col := range his {
		his[col] = thinHis(his[col], maxLatticePerCol)
	}
	lambda := scorer.Task().Lambda
	var refined []partition.Candidate
	for i := 0; i < min(refineTop, len(cands)); i++ {
		cur := cands[i]
		curScore := cur.Score
		for step := 0; step < refineMaxSteps; step++ {
			best := curScore
			var bestPred predicate.Predicate
			improved := false
			for _, next := range referenceMoves(cur.Pred, los, his) {
				if s := scorer.Influence(next); s > best {
					best, bestPred, improved = s, next, true
				}
			}
			if !improved {
				break
			}
			cur = partition.Candidate{Pred: bestPred, Score: best}
			curScore = best
		}
		if curScore > cands[i].Score {
			outMean, holdPen := scorer.Parts(cur.Pred)
			refined = append(refined, partition.Candidate{Pred: cur.Pred, Score: lambda*outMean - (1-lambda)*holdPen})
		}
	}
	if len(refined) == 0 {
		return cands
	}
	out := partition.Dedupe(append(refined, cands...))
	partition.SortByScore(out)
	return out
}

// referenceMoves is every single-bound variant of p on the lattice: each
// continuous clause's lo replaced by each other observed lo, then its hi by
// each other observed hi bound.
func referenceMoves(p predicate.Predicate, los map[int][]float64, his map[int][]hiBound) []predicate.Predicate {
	var out []predicate.Predicate
	clauses := p.Clauses()
	for ci, cl := range clauses {
		if cl.Kind != relation.Continuous {
			continue
		}
		emit := func(nc predicate.Clause) {
			if nc.Lo > nc.Hi || (nc.Lo == nc.Hi && !nc.HiInc) {
				return
			}
			next := make([]predicate.Clause, len(clauses))
			copy(next, clauses)
			next[ci] = nc
			if np, err := predicate.New(next...); err == nil {
				out = append(out, np)
			}
		}
		for _, lo := range los[cl.Col] {
			if lo == cl.Lo {
				continue
			}
			nc := cl
			nc.Lo = lo
			emit(nc)
		}
		for _, h := range his[cl.Col] {
			if h.v == cl.Hi && h.inc == cl.HiInc {
				continue
			}
			nc := cl
			nc.Hi, nc.HiInc = h.v, h.inc
			emit(nc)
		}
	}
	return out
}

// exactCandidates scores each predicate exactly, as the combine's re-score
// does, and returns them deduped and ranked.
func exactCandidates(scorer *influence.Scorer, preds []predicate.Predicate) []partition.Candidate {
	lambda := scorer.Task().Lambda
	var cands []partition.Candidate
	for _, p := range preds {
		outMean, holdPen := scorer.Parts(p)
		cands = append(cands, partition.Candidate{Pred: p, Score: lambda*outMean - (1-lambda)*holdPen, HoldPenalty: holdPen})
	}
	partition.SortByScore(cands)
	return partition.Dedupe(cands)
}

// sameCandidates reports the first difference between two ranked lists:
// predicate keys, score and penalty bits.
func sameCandidates(got, want []partition.Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Pred.Key() != w.Pred.Key() || math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.HoldPenalty) != math.Float64bits(w.HoldPenalty) {
			return fmt.Errorf("candidate %d: %v (%v, penalty %v), want %v (%v, penalty %v)",
				i, g.Pred, g.Score, g.HoldPenalty, w.Pred, w.Score, w.HoldPenalty)
		}
	}
	return nil
}

// widen returns p with each continuous clause stretched to [lo, hi] of
// the space's domain, one clause at a time: candidates too wide for the
// λ-optimal box, which is what the climb narrows.
func widen(space *predicate.Space, p predicate.Predicate) []predicate.Predicate {
	var out []predicate.Predicate
	for ci, cl := range p.Clauses() {
		d, ok := space.Domain(cl.Col)
		if cl.Kind != relation.Continuous || !ok {
			continue
		}
		next := slices.Clone(p.Clauses())
		next[ci].Lo, next[ci].Hi, next[ci].HiInc = d.Lo, d.Hi, true
		out = append(out, predicate.MustNew(next...))
	}
	return out
}

// TestRefineMatchesReference holds the combine's refine pass — a climb on
// Boxes scored through the combine's Lattice, which skips the moves of the
// bound the previous step moved, and a predicate climb for a candidate no
// Box holds — to the plain predicate climb scored by Scorer.Influence: the
// same refined candidates in the same order, with the same score and
// penalty bits. It covers SUM, AVG and count(*), c 0, 0.5 and 1, a grid
// lattice (GridBins 10) and a candidate-derived one (0, the DT path), a
// five-clause candidate no Box holds, and NaN and ±Inf in the search and
// aggregate columns.
func TestRefineMatchesReference(t *testing.T) {
	type fixture struct {
		name   string
		task   *influence.Task
		space  *predicate.Space
		preds  []predicate.Predicate
		boxful bool // every candidate fits a Box
	}
	var fixtures []fixture
	ds := synth.Generate(synth.Config{Dims: 2, TuplesPerGroup: 300, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 7})
	for _, agg := range []string{"sum", "avg", "count(*)"} {
		for _, c := range []float64{0, 0.5, 1} {
			name := agg
			if agg == "count(*)" {
				name = "sum"
			}
			task, space, err := eval.SynthTask(ds, name, 0.5, c)
			if err != nil {
				t.Fatal(err)
			}
			if agg == "count(*)" {
				task.Agg, task.AggCol = aggregate.Count{}, -1
			}
			scorer, err := influence.NewScorer(task)
			if err != nil {
				t.Fatal(err)
			}
			// A coarse grid's answers, which a finer lattice can improve,
			// and a fine grid's; each with every clause widened to its
			// domain in turn.
			for _, bins := range []int{4, 10} {
				res, err := naive.RunContext(context.Background(), scorer, space, naive.Params{Bins: bins, TopK: 24}, 1)
				if err != nil {
					t.Fatal(err)
				}
				var preds []predicate.Predicate
				for _, cand := range res.TopK {
					preds = append(preds, cand.Pred)
					preds = append(preds, widen(space, cand.Pred)...)
				}
				fixtures = append(fixtures, fixture{fmt.Sprintf("%s/c=%v/grid=%d", agg, c, bins), task, space, preds, true})
			}
		}
	}

	// Five search attributes: a candidate on all five no Box can hold.
	ds5 := synth.Generate(synth.Config{Dims: 5, TuplesPerGroup: 200, Groups: 4, OutlierGroups: 2, Mu: 80, Seed: 3})
	task5, space5, err := eval.SynthTask(ds5, "sum", 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var five []predicate.Clause
	for _, col := range space5.Columns() {
		five = append(five, predicate.NewRangeClause(col, space5.Name(col), 5, 95, true))
	}
	wide := predicate.MustNew(five...)
	fixtures = append(fixtures, fixture{"five-clauses", task5, space5, []predicate.Predicate{
		wide,
		predicate.MustNew(five[0], five[1]),
		predicate.MustNew(predicate.NewRangeClause(five[2].Col, five[2].Name, 20, 80, false)),
	}, false})

	// NaN and ±Inf among the search values and the aggregate values, as
	// failure_test.go feeds the public API.
	schema := relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	for i := 0; i < 60; i++ {
		x, v := float64(i%20), 10.0
		switch {
		case i%20 == 5 && i/20 == 1:
			v = math.NaN()
		case i%20 == 11:
			v = math.Inf(1)
		case i%20 == 13 && i/20 == 1:
			x = math.NaN()
		case i%20 == 17:
			x = math.Inf(1 - 2*(i/20%2))
		}
		if i >= 20 && i%3 == 0 {
			v = 100
		}
		b.MustAppend(relation.Row{relation.S([]string{"h", "o", "k"}[i/20]), relation.F(x), relation.F(v)})
	}
	hostile := b.Build()
	hspace, err := predicate.NewSpace(hostile, []string{"x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	group := func(k int) *relation.RowSet {
		rs := relation.NewRowSet(hostile.NumRows())
		rs.AddRange(20*k, 20*k+20)
		return rs
	}
	var hpreds []predicate.Predicate
	for _, r := range [][2]float64{{0, 20}, {2, 9}, {3, 15}, {6, 7}, {10, 19}, {math.Inf(-1), 4}, {12, math.Inf(1)}, {math.NaN(), 8}, {math.Inf(-1), math.Inf(1)}} {
		hpreds = append(hpreds, predicate.MustNew(predicate.Clause{Col: 1, Name: "x", Kind: relation.Continuous, Lo: r[0], Hi: r[1], HiInc: math.IsInf(r[1], 1)}))
	}
	// At λ = 1 a box that deletes all of h, whose values hold +Inf, has an
	// infinite penalty, and the objective's 0·Inf is NaN.
	for _, h := range []struct {
		agg    aggregate.Func
		lambda float64
	}{{aggregate.Sum{}, 0.5}, {aggregate.Avg{}, 0.5}, {aggregate.Sum{}, 1}} {
		task := &influence.Task{Table: hostile, Agg: h.agg, AggCol: 2, Lambda: h.lambda, C: 0.5,
			Outliers: []influence.Group{{Key: "o", Rows: group(1), Direction: influence.TooHigh}},
			HoldOuts: []influence.Group{{Key: "h", Rows: group(0)}, {Key: "k", Rows: group(2)}}}
		fixtures = append(fixtures, fixture{fmt.Sprintf("hostile-%s-lambda=%v", h.agg.Name(), h.lambda), task, hspace, hpreds, true})
		if h.lambda == 1 {
			// So few candidates that the NaN-scored one, ranked last, is
			// still among those climbed.
			fixtures = append(fixtures, fixture{"hostile-nan-climbed", task, hspace, []predicate.Predicate{hpreds[1], hpreds[len(hpreds)-1]}, true})
		}
	}

	changed, fallbacks := 0, 0
	for _, f := range fixtures {
		for _, bins := range []int{0, 10} {
			name := fmt.Sprintf("%s/bins=%d", f.name, bins)
			scorer, err := influence.NewScorer(f.task)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := influence.NewScorer(f.task)
			if err != nil {
				t.Fatal(err)
			}
			cands := exactCandidates(ref, f.preds)
			coord := NewCoordinator(scorer, f.space, nil, 2, Params{GridBins: bins})
			coord.lat = scorer.NewLattice(f.space)
			span := obs.NewSpan("refine")
			got := coord.refine(partition.NewPool(context.Background(), 1), span, slices.Clone(cands))
			span.End()
			want := referenceRefine(coord, ref, slices.Clone(cands))
			if err := sameCandidates(got, want); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if sameCandidates(got, cands) != nil {
				changed++
			}
			attrs := span.Snapshot().Attrs
			for _, attr := range []string{"steps", "moves", "box_fallbacks"} {
				if _, ok := attrs[attr].(int); !ok {
					t.Fatalf("%s: refine span attrs %v, want an int %s", name, attrs, attr)
				}
			}
			if n := attrs["box_fallbacks"].(int); f.boxful != (n == 0) {
				t.Errorf("%s: %d box fallbacks", name, n)
			} else {
				fallbacks += n
			}
		}
	}
	if changed < len(fixtures) {
		t.Errorf("refine improved %d of %d lists: the fixtures barely climb", changed, 2*len(fixtures))
	}
	t.Logf("%d of %d lists refined, %d climbs on predicates", changed, 2*len(fixtures), fallbacks)
}

// TestCombineScoresExact: every candidate a sharded search returns carries
// its exact full-table score, Scorer.Influence's bits, at 1 and 2 workers,
// which return the same list; and the combine's lattice is handed over
// once.
func TestCombineScoresExact(t *testing.T) {
	cfg := synth.Config{Dims: 2, TuplesPerGroup: 300, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 7}
	for _, algo := range []string{"naive", "mc"} {
		for _, agg := range []string{"sum", "count(*)"} {
			ds := synth.Generate(cfg)
			task, space, err := eval.SynthTask(ds, "sum", 0.5, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if agg == "count(*)" {
				task.Agg, task.AggCol = aggregate.Count{}, -1
			}
			factory := func(sc *influence.Scorer, sp *predicate.Space, domains map[int]predicate.Domain) (partition.Searcher, error) {
				if algo == "mc" {
					return mc.NewSearcher(sc, sp, mc.Params{Bins: 8, Domains: domains}), nil
				}
				return naive.NewSearcher(sc, sp, naive.Params{Bins: 6, TopK: DefaultTopPerShard, Domains: domains}), nil
			}
			var first []partition.Candidate
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("%s/%s/workers=%d", algo, agg, workers)
				scorer, err := influence.NewScorer(task)
				if err != nil {
					t.Fatal(err)
				}
				coord := NewCoordinator(scorer, space, factory, 3, Params{GridBins: 6})
				out, err := partition.RunSearch(context.Background(), workers, coord)
				if err != nil {
					t.Fatal(err)
				}
				if len(out.Candidates) == 0 {
					t.Fatalf("%s: no candidates", name)
				}
				ref, err := influence.NewScorer(task)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range out.Candidates {
					if exact := ref.Influence(c.Pred); math.Float64bits(c.Score) != math.Float64bits(exact) {
						t.Fatalf("%s: %v scores %v, exact %v", name, c.Pred, c.Score, exact)
					}
				}
				if coord.TakeLattice() == nil || coord.TakeLattice() != nil {
					t.Errorf("%s: the combine's lattice is not handed over exactly once", name)
				}
				if first == nil {
					first = out.Candidates
				} else if err := sameCandidates(out.Candidates, first); err != nil {
					t.Errorf("%s: %v against one worker", name, err)
				}
			}
		}
	}
}
