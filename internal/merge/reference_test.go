package merge

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	dtpkg "github.com/scorpiondb/scorpion/internal/partition/dt"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// refMergeSeeded is the Predicate Merger the Box kernel replaced, kept as
// its reference, scoring every attempt through Scorer.Influence. It is
// MergeSeeded: Merge with expansion seeds — the merged results of a
// previous run with a higher c value (§8.3.3: "Scorpion can initialize the
// merging process to the results of any prior execution with a higher c").
// When seeds are given they REPLACE the usual expansion frontier: only the
// seeds grow (each from where the previous run stopped), while the pool
// still supplies merge partners. This is what makes the cached c sweep
// cheap.
func (m *Merger) refMergeSeeded(cands []partition.Candidate, seeds []partition.Candidate) []partition.Candidate {
	if len(cands) == 0 && len(seeds) == 0 {
		return nil
	}
	pool := make([]partition.Candidate, len(cands))
	copy(pool, cands)
	partition.SortByScore(pool)

	expandFrom := pool
	if m.params.TopQuartileOnly && len(pool) >= 4 {
		expandFrom = pool[:(len(pool)+3)/4]
	}
	if len(seeds) > 0 {
		expandFrom = nil
	}
	absorbed := make(map[string]bool)

	var out []partition.Candidate
	// Seeds first: they represent already-grown boxes.
	for _, seed := range seeds {
		out = append(out, m.refExpand(seed, pool, absorbed))
	}
	for _, c := range expandFrom {
		if absorbed[c.Pred.Key()] {
			continue
		}
		out = append(out, m.refExpand(c, pool, absorbed))
	}
	// Non-seed candidates that were never expanded nor absorbed still count
	// as results (the paper returns the full resulting list).
	for _, c := range pool {
		if !absorbed[c.Pred.Key()] {
			out = append(out, c)
		}
	}
	out = partition.Dedupe(out)
	partition.SortByScore(out)
	return out
}

// refExpand is expand on predicates: it grows one candidate by greedily
// absorbing adjacent pool members while the influence increases, taking the
// highest score, the earliest pool index on ties, strictly above the
// current score.
func (m *Merger) refExpand(c partition.Candidate, pool []partition.Candidate, absorbed map[string]bool) partition.Candidate {
	cur := c
	curScore := m.scorer.Influence(cur.Pred)
	rounds := m.params.MaxRounds
	if rounds <= 0 {
		rounds = len(pool) + 1
	}
	for r := 0; r < rounds; r++ {
		if m.pool.Cancelled() {
			break
		}
		// Gather the merge candidates, then score them.
		type attempt struct {
			idx    int
			merged predicate.Predicate
			score  float64
		}
		var attempts []attempt
		for i, q := range pool {
			if q.Pred.Equal(cur.Pred) {
				continue
			}
			// Only predicates over the same subspace merge (CLIQUE merges
			// same-dimensionality units; merging across attribute sets
			// would drop clauses and balloon straight to the full space).
			if !sameColumns(cur.Pred, q.Pred) {
				continue
			}
			if !m.space.Adjacent(cur.Pred, q.Pred, adjacencyEps) {
				continue
			}
			merged := cur.Pred.Merge(q.Pred)
			if merged.Equal(cur.Pred) {
				continue
			}
			attempts = append(attempts, attempt{idx: i, merged: merged})
		}
		for i := range attempts {
			attempts[i].score = m.scorer.Influence(attempts[i].merged)
		}
		bestScore := curScore
		var bestPred predicate.Predicate
		bestIdx := -1
		for _, a := range attempts {
			if a.score > bestScore {
				bestScore, bestPred, bestIdx = a.score, a.merged, a.idx
			}
		}
		if bestIdx < 0 {
			break
		}
		absorbed[pool[bestIdx].Pred.Key()] = true
		cur = partition.Candidate{Pred: bestPred, Score: bestScore}
		curScore = bestScore
	}
	cur.Score = curScore
	return cur
}

// boxFixture is a table of groups over two continuous columns (x, y) and
// one discrete column (d), with its search space; a wide fixture adds a
// discrete column w with more codes than a Box holds.
type boxFixture struct {
	table *relation.Table
	space *predicate.Space
	codes int // distinct codes of d
	wide  int // distinct codes of w, 0 without it
}

func buildBoxTable(t *testing.T, rng *rand.Rand, groups, wide int) boxFixture {
	t.Helper()
	cols := []relation.Column{
		{Name: "g", Kind: relation.Discrete},
		{Name: "x", Kind: relation.Continuous},
		{Name: "y", Kind: relation.Continuous},
		{Name: "d", Kind: relation.Discrete},
		{Name: "v", Kind: relation.Continuous},
	}
	attrs := []string{"x", "y", "d"}
	if wide > 0 {
		cols = append(cols, relation.Column{Name: "w", Kind: relation.Discrete})
		attrs = append(attrs, "w")
	}
	b := relation.NewBuilder(relation.MustSchema(cols...))
	const codes = 6
	for g := 0; g < groups; g++ {
		for i := 0; i < 40; i++ {
			row := relation.Row{
				relation.S(string(rune('A' + g))),
				relation.F(rng.Float64() * 100),
				relation.F(float64(rng.Intn(20))),
				relation.S(string(rune('a' + rng.Intn(codes)))),
				relation.F(rng.NormFloat64()*10 + 50),
			}
			if wide > 0 {
				// Every code appears, in order, so code k is the k-th value.
				row = append(row, relation.S(strconv.Itoa(1000+(g*40+i)%wide)))
			}
			b.MustAppend(row)
		}
	}
	tbl := b.Build()
	space, err := predicate.NewSpace(tbl, attrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return boxFixture{table: tbl, space: space, codes: codes, wide: wide}
}

// box draws a random predicate over x, y and d: each column is left
// unconstrained, or gets a range (sometimes a point, sometimes reaching
// past the domain), or a set of codes (sometimes empty).
func (fx boxFixture) box(rng *rand.Rand) predicate.Predicate {
	var clauses []predicate.Clause
	for _, name := range []string{"x", "y"} {
		col := fx.table.Schema().MustIndex(name)
		switch rng.Intn(4) {
		case 0: // unconstrained
		case 1: // a point, on the grid y is drawn from or off it
			v := float64(rng.Intn(20))
			if rng.Intn(2) == 0 {
				v = rng.Float64() * 100
			}
			clauses = append(clauses, predicate.NewRangeClause(col, name, v, v, true))
		default:
			lo := rng.Float64()*130 - 15
			hi := lo + rng.Float64()*60
			clauses = append(clauses, predicate.NewRangeClause(col, name, lo, hi, rng.Intn(2) == 0))
		}
	}
	if rng.Intn(3) > 0 {
		var codes []int32
		for c := 0; c < fx.codes; c++ {
			if rng.Intn(2) == 0 {
				codes = append(codes, int32(c))
			}
		}
		col := fx.table.Schema().MustIndex("d")
		clauses = append(clauses, predicate.NewSetClause(col, "d", codes))
	}
	return predicate.MustNew(clauses...)
}

// pool draws n random candidates with random hold-out penalties, a NaN or
// a 0 now and then.
func (fx boxFixture) pool(rng *rand.Rand, n int) []partition.Candidate {
	pool := make([]partition.Candidate, n)
	for i := range pool {
		pool[i] = partition.Candidate{Pred: fx.box(rng), HoldPenalty: rng.Float64() * 3}
		switch rng.Intn(8) {
		case 0:
			pool[i].HoldPenalty = math.NaN()
		case 1:
			pool[i].HoldPenalty = 0
		}
	}
	return pool
}

// wideBox is box plus, on a wide fixture and now and then, a clause on w —
// over codes a Box holds, or reaching past them, which a Box cannot hold.
func (fx boxFixture) wideBox(rng *rand.Rand) predicate.Predicate {
	p := fx.box(rng)
	if fx.wide == 0 || rng.Intn(4) > 0 {
		return p
	}
	hi := 64
	if rng.Intn(2) == 0 {
		hi = fx.wide
	}
	var codes []int32
	for c := 0; c < hi; c++ {
		if rng.Intn(8) == 0 {
			codes = append(codes, int32(c))
		}
	}
	col := fx.table.Schema().MustIndex("w")
	return predicate.MustNew(append(p.Clauses(), predicate.NewSetClause(col, "w", codes))...)
}

// gridBox draws a cell-like predicate: x over a run of 10-wide cells, y
// over a run of 4-wide ones, each closed at the domain's top, and d over
// a few codes — so boxes share bounds, touch and merge often.
func (fx boxFixture) gridBox(rng *rand.Rand) predicate.Predicate {
	var clauses []predicate.Clause
	for _, dim := range []struct {
		name       string
		step, top  float64
		cells, max int
	}{{"x", 10, 100, 3, 10}, {"y", 4, 20, 2, 5}} {
		if rng.Intn(4) == 0 {
			continue
		}
		a := rng.Intn(dim.max)
		b := min(dim.max, a+1+rng.Intn(dim.cells))
		lo, hi := float64(a)*dim.step, float64(b)*dim.step
		clauses = append(clauses, predicate.NewRangeClause(fx.table.Schema().MustIndex(dim.name), dim.name, lo, hi, hi == dim.top))
	}
	if rng.Intn(2) == 0 {
		clauses = append(clauses, predicate.NewSetClause(fx.table.Schema().MustIndex("d"), "d",
			[]int32{int32(rng.Intn(fx.codes)), int32(rng.Intn(fx.codes))}))
	}
	return predicate.MustNew(clauses...)
}

// scorer is an AVG task over the fixture's groups: the first outliers
// flagged (alternating directions), the rest held out.
func (fx boxFixture) scorer(t *testing.T, groups, outliers int, lambda, c float64) *influence.Scorer {
	t.Helper()
	task := &influence.Task{
		Table: fx.table, Agg: aggregate.Avg{}, AggCol: fx.table.Schema().MustIndex("v"),
		Lambda: lambda, C: c,
	}
	for g := 0; g < groups; g++ {
		rows := relation.NewRowSet(fx.table.NumRows())
		for r := g * 40; r < (g+1)*40; r++ {
			rows.Add(r)
		}
		grp := influence.Group{Key: string(rune('A' + g)), Rows: rows, Direction: influence.TooHigh}
		if g%2 == 1 {
			grp.Direction = influence.TooLow
		}
		if g < outliers {
			task.Outliers = append(task.Outliers, grp)
		} else {
			task.HoldOuts = append(task.HoldOuts, grp)
		}
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	return scorer
}

// mergePool is pool over wideBox predicates, scored at random — with ties,
// a NaN now and then, and the hold-out flag on some members.
func (fx boxFixture) mergePool(rng *rand.Rand, n int) []partition.Candidate {
	pool := fx.pool(rng, n)
	for i := range pool {
		pool[i].Score = float64(rng.Intn(40)) / 8
		switch rng.Intn(12) {
		case 0:
			pool[i].Score = math.NaN()
		case 1, 9:
			pool[i].Pred = pool[rng.Intn(i+1)].Pred // a duplicate
		case 2, 3:
			pool[i].Pred = fx.wideBox(rng)
		case 4, 5, 6, 7, 8:
			pool[i].Pred = fx.gridBox(rng)
		}
	}
	return pool
}

// sameMerge fails unless got is want candidate for candidate: equal
// predicates with equal keys, and scores and penalties with equal bits.
func sameMerge(t *testing.T, what string, got, want []partition.Candidate) {
	t.Helper()
	bitsEqual := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, reference %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Pred.Equal(w.Pred) || g.Pred.Key() != w.Pred.Key() || !bitsEqual(g.Score, w.Score) ||
			!bitsEqual(g.HoldPenalty, w.HoldPenalty) {
			t.Fatalf("%s: candidate %d = %v (%v, pen %v), reference %v (%v, pen %v)", what, i,
				g.Pred, g.Score, g.HoldPenalty, w.Pred, w.Score, w.HoldPenalty)
		}
	}
}

// TestMergeMatchesReference holds the Box kernel's Merger to the
// Predicate Merger that scores every attempt through Scorer.Influence,
// candidate for candidate and bit for bit: with the lattice the merge
// starts itself, and with one the caller passes over a scorer without the
// selection memo and over one that keeps it across calls — over random
// pools on continuous and discrete columns (some members on a column too
// wide for a Box, so the fallback runs too) and over DT partitionings,
// with and without seeds (some off every piece's bounds, some too wide for
// a Box) and top-quartile expansion.
func TestMergeMatchesReference(t *testing.T) {
	type input struct {
		name        string
		scorer      *influence.Scorer
		space       *predicate.Space
		pool, seeds []partition.Candidate
	}
	var inputs []input
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 24; trial++ {
		outliers := 1 + rng.Intn(4)
		fx := buildBoxTable(t, rng, outliers+2, 70)
		scorer := fx.scorer(t, outliers+2, outliers, 0.3+0.4*rng.Float64(), []float64{0, 0.5, 1}[trial%3])
		in := input{name: "random " + strconv.Itoa(trial), scorer: scorer, space: fx.space,
			pool: fx.mergePool(rng, 10+rng.Intn(30))}
		for k := 0; k < 3; k++ {
			in.seeds = append(in.seeds, partition.Candidate{Pred: fx.wideBox(rng), HoldPenalty: rng.Float64()})
		}
		inputs = append(inputs, in)
	}
	for _, c := range []float64{0, 0.2, 0.5} {
		ds := synth.Generate(synth.Config{Dims: 2, TuplesPerGroup: 200, Groups: 5, OutlierGroups: 2, Mu: 80, Seed: 3})
		task, space, err := eval.SynthTask(ds, "avg", 0.5, c)
		if err != nil {
			t.Fatal(err)
		}
		scorer, err := influence.NewScorer(task)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := dtpkg.Partition(context.Background(), scorer, space, dtpkg.Params{})
		if err != nil {
			t.Fatal(err)
		}
		cands := pt.Candidates(scorer)
		in := input{name: "dt c=" + strconv.FormatFloat(c, 'g', -1, 64), scorer: scorer, space: space, pool: cands}
		for i := 0; i < len(cands); i += 4 {
			in.pool = append(in.pool, cands[i]) // a duplicate piece
		}
		// Seeds: a higher c's merge, and a box off every piece's bounds.
		prev := New(scorer, space, Params{TopQuartileOnly: true}).Merge(cands)
		in.seeds = append(prev[:min(3, len(prev))], partition.Candidate{Pred: predicate.MustNew(
			predicate.NewRangeClause(space.Columns()[0], space.Name(space.Columns()[0]), 12.345, 67.891, false))})
		inputs = append(inputs, in)
	}

	reg := obs.NewRegistry()
	ctx := obs.ContextWithRegistry(context.Background(), reg)
	for i := range inputs {
		in := &inputs[i]
		memo, err := influence.NewScorer(in.scorer.Task())
		if err != nil {
			t.Fatal(err)
		}
		memo.MemoizeSelections(in.space)
		for _, seeded := range []bool{false, true} {
			var seeds []partition.Candidate
			if seeded {
				seeds = in.seeds
			}
			for _, quartile := range []bool{false, true} {
				params := Params{TopQuartileOnly: quartile}
				what := in.name + " seeded=" + strconv.FormatBool(seeded) + " quartile=" + strconv.FormatBool(quartile)
				merger := func(s *influence.Scorer) *Merger {
					return New(s, in.space, params).WithPool(partition.NewPool(ctx, 1))
				}
				want := merger(in.scorer).refMergeSeeded(in.pool, seeds)
				sameMerge(t, what+" own lattice", merger(in.scorer).MergeSeeded(in.pool, seeds), want)
				sameMerge(t, what+" lattice", merger(in.scorer).WithLattice(in.scorer.NewLattice(in.space)).MergeSeeded(in.pool, seeds), want)
				sameMerge(t, what+" lattice+memo", merger(memo).WithLattice(memo.NewLattice(in.space)).MergeSeeded(in.pool, seeds), want)
			}
		}
		if hits, _ := memo.MemoStats(); hits == 0 {
			t.Errorf("%s: the selection memo was never hit", in.name)
		}
	}
	// The fallback and the kernel both ran.
	if reg.Counter("scorpion_merge_box_fallbacks_total").Value() == 0 || reg.Counter("scorpion_merge_attempts_total", "algo", "").Value() == 0 {
		t.Fatalf("fallbacks %v, attempts %v: want both > 0", reg.Counter("scorpion_merge_box_fallbacks_total").Value(),
			reg.Counter("scorpion_merge_attempts_total", "algo", "").Value())
	}
}
