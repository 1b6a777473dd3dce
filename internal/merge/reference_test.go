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

// refOverlapFraction is the clause-copying overlapFraction the index walk
// replaced, kept verbatim as its reference.
func refOverlapFraction(space *predicate.Space, q, pstar predicate.Predicate) float64 {
	frac := 1.0
	for _, qc := range q.Clauses() {
		pc, ok := pstar.ClauseOn(qc.Col)
		if !ok {
			continue
		}
		if qc.Kind == relation.Continuous {
			width := qc.Hi - qc.Lo
			lo := math.Max(qc.Lo, pc.Lo)
			hi := math.Min(qc.Hi, pc.Hi)
			if width <= 0 {
				if pc.Lo <= qc.Lo && qc.Lo <= pc.Hi {
					continue
				}
				return 0
			}
			if hi <= lo {
				return 0
			}
			frac *= (hi - lo) / width
		} else {
			if len(qc.Values) == 0 {
				return 0
			}
			common := 0
			i, j := 0, 0
			for i < len(qc.Values) && j < len(pc.Values) {
				switch {
				case qc.Values[i] < pc.Values[j]:
					i++
				case qc.Values[i] > pc.Values[j]:
					j++
				default:
					common++
					i++
					j++
				}
			}
			if common == 0 {
				return 0
			}
			frac *= float64(common) / float64(len(qc.Values))
		}
	}
	for _, pc := range pstar.Clauses() {
		if _, ok := q.ClauseOn(pc.Col); ok {
			continue
		}
		d, ok := space.Domain(pc.Col)
		if !ok {
			continue
		}
		if pc.Kind == relation.Continuous {
			width := d.Hi - d.Lo
			if width <= 0 {
				continue
			}
			lo := math.Max(pc.Lo, d.Lo)
			hi := math.Min(pc.Hi, d.Hi)
			if hi <= lo {
				return 0
			}
			frac *= (hi - lo) / width
		} else {
			if d.Card <= 0 {
				continue
			}
			frac *= float64(len(pc.Values)) / float64(d.Card)
		}
	}
	return frac
}

// refApproxInfluence is the pass-per-group approxInfluence the single pool
// pass replaced, kept verbatim as its reference.
func refApproxInfluence(m *Merger, pstar predicate.Predicate, pool []partition.Candidate) (float64, bool) {
	task := m.scorer.Task()
	nGroups := len(task.Outliers)
	sawStats := false
	total := 0.0
	for gi := 0; gi < nGroups; gi++ {
		var removedState aggregate.State
		removedN := 0.0
		for _, q := range pool {
			if len(q.GroupCards) != nGroups || len(q.CachedRows) != nGroups {
				continue
			}
			frac := refOverlapFraction(m.space, q.Pred, pstar)
			if frac <= 0 {
				continue
			}
			row := q.CachedRows[gi]
			if row < 0 || q.GroupCards[gi] <= 0 {
				continue
			}
			sawStats = true
			n := q.GroupCards[gi] * frac
			removedState = m.rem.Update(removedState, scaleState(m.rowState(row), n))
			removedN += n
		}
		if removedN <= 0 {
			continue
		}
		orig := m.scorer.OutlierResult(gi)
		updated := m.rem.Recover(m.rem.Remove(m.scorer.OutlierState(gi), removedState))
		delta := orig - updated
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			continue
		}
		inf := delta
		if task.C != 0 {
			inf = delta / math.Pow(removedN, task.C)
		}
		total += inf * float64(task.Outliers[gi].Direction)
	}
	if !sawStats {
		return 0, false
	}
	outPart := total / float64(nGroups)
	penalty := 0.0
	for _, q := range pool {
		if refOverlapFraction(m.space, q.Pred, pstar) > 0 && q.HoldPenalty > penalty {
			penalty = q.HoldPenalty
		}
	}
	return task.Lambda*outPart - (1-task.Lambda)*penalty, true
}

// rowState returns state({value of row}): the reference approximations'
// cached-tuple state, which the piece table now holds per group.
func (m *Merger) rowState(row int) aggregate.State {
	task := m.scorer.Task()
	v := 0.0
	if task.AggCol >= 0 {
		v = task.Table.Floats(task.AggCol)[row]
	}
	var st aggregate.State
	st.Add(v)
	return st
}

// refMergeSeeded is HEAD's MergeSeeded, kept verbatim as the reference of
// the Box kernel's Merger. MergeSeeded is Merge with expansion seeds — the merged results of a
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
	m.rescoreTop(out)
	partition.SortByScore(out)
	return out
}

// refExpand is expand on predicates: it grows one candidate by greedily absorbing adjacent pool members
// while the (estimated) influence increases. Candidate-merge scoring fans
// out over the attached worker pool; the greedy choice — the highest score,
// earliest pool index on ties, strictly above the current score — matches
// the serial scan exactly, so parallel and serial expansions agree.
func (m *Merger) refExpand(c partition.Candidate, pool []partition.Candidate, absorbed map[string]bool) partition.Candidate {
	cur := c
	curScore := m.refScore(cur.Pred, pool)
	rounds := m.params.MaxRounds
	if rounds <= 0 {
		rounds = len(pool) + 1
	}
	for r := 0; r < rounds; r++ {
		if m.pool.Cancelled() {
			break
		}
		// Gather the merge candidates cheaply, then score them in parallel.
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
		if err := m.pool.ForEach(len(attempts), func(i int) {
			attempts[i].score = m.refScore(attempts[i].merged, pool)
		}); err != nil {
			break // cancelled mid-scoring: unscored attempts must not win
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
		cur = partition.Candidate{
			Pred:        bestPred,
			Score:       bestScore,
			HoldPenalty: math.Max(cur.HoldPenalty, pool[bestIdx].HoldPenalty),
			InfluencesHoldOut: cur.InfluencesHoldOut ||
				pool[bestIdx].InfluencesHoldOut,
		}
		curScore = bestScore
	}
	cur.Score = curScore
	return cur
}

// refScore estimates the influence of a predicate, via the cached-tuple
// approximation when enabled and possible, else via the exact Scorer.
func (m *Merger) refScore(p predicate.Predicate, pool []partition.Candidate) float64 {
	if m.params.UseApproximation && m.rem != nil {
		if v, ok := m.refOnePassInfluence(p, pool); ok {
			return v
		}
	}
	return m.scorer.Influence(p)
}

// refOnePassInfluence is the single-pool-pass approxInfluence the Box
// kernel replaced, kept verbatim as its reference. It estimates inf(O, H, p*, V) from the partition statistics
// alone (§6.3). Returns false when the pool lacks the needed statistics.
//
// One pass over the pool computes each member's overlap with p* once and
// folds it into every outlier group's estimate and into the hold-out
// penalty. Each group still sees its updates in pool order, so the bits are
// those of a pass per group.
func (m *Merger) refOnePassInfluence(pstar predicate.Predicate, pool []partition.Candidate) (float64, bool) {
	task := m.scorer.Task()
	nGroups := len(task.Outliers)
	// The estimated state and size of p*(g) per outlier group, accumulated
	// from cached tuples; on the stack for the usual handful of outliers.
	var stateBuf [8]aggregate.State
	var nBuf [8]float64
	var removed []aggregate.State
	var removedN []float64
	if nGroups <= len(stateBuf) {
		removed, removedN = stateBuf[:nGroups], nBuf[:nGroups]
	} else {
		removed, removedN = make([]aggregate.State, nGroups), make([]float64, nGroups)
	}
	sawStats := false
	// Hold-out penalty: reuse the worst stored leaf penalty among overlapping
	// partitions (a merged predicate's max_h penalty is at least its parts').
	penalty := 0.0
	for i := range pool {
		q := &pool[i]
		frac := overlapFraction(m.space, q.Pred, pstar)
		if frac > 0 && q.HoldPenalty > penalty {
			penalty = q.HoldPenalty
		}
		if len(q.GroupCards) != nGroups || len(q.CachedRows) != nGroups || frac <= 0 {
			continue
		}
		for gi := range removed {
			row := q.CachedRows[gi]
			if row < 0 || q.GroupCards[gi] <= 0 {
				continue
			}
			sawStats = true
			n := q.GroupCards[gi] * frac
			removed[gi] = m.rem.Update(removed[gi], scaleState(m.rowState(row), n))
			removedN[gi] += n
		}
	}
	if !sawStats {
		return 0, false
	}

	total := 0.0
	for gi := range removed {
		if removedN[gi] <= 0 {
			continue
		}
		orig := m.scorer.OutlierResult(gi)
		updated := m.rem.Recover(m.rem.Remove(m.scorer.OutlierState(gi), removed[gi]))
		delta := orig - updated
		if math.IsNaN(delta) || math.IsInf(delta, 0) {
			continue
		}
		inf := delta
		if task.C != 0 {
			inf = delta / math.Pow(removedN[gi], task.C)
		}
		total += inf * float64(task.Outliers[gi].Direction)
	}
	outPart := total / float64(nGroups)
	return task.Lambda*outPart - (1-task.Lambda)*penalty, true
}

// approxInfluence runs the Box kernel's approximation for one p* over one
// pool in the order given, the form the reference tests call.
func (m *Merger) approxInfluence(pstar predicate.Predicate, pool []partition.Candidate) (float64, bool) {
	r := m.newRun(pool)
	s := r.shapeOf(pstar)
	return r.approxInfluence(&s)
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

func buildBoxes(t *testing.T, rng *rand.Rand, groups int) boxFixture {
	return buildBoxTable(t, rng, groups, 0)
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

// TestOverlapFractionMatchesReference holds the index walk to the
// clause-copying original, bit for bit, over random pairs of boxes.
func TestOverlapFractionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fx := buildBoxes(t, rng, 2)
	for i := 0; i < 20000; i++ {
		q, pstar := fx.box(rng), fx.box(rng)
		got, want := overlapFraction(fx.space, q, pstar), refOverlapFraction(fx.space, q, pstar)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("overlapFraction(%v, %v) = %v, reference %v", q, pstar, got, want)
		}
	}
}

// TestApproxInfluenceMatchesReference holds the single pool pass to the
// pass per outlier group, bit for bit, over random pools: stats on some
// members and not others (missing, or sized for another group count),
// cached rows and cards that are unusable, NaN hold-out penalties, few
// outliers and more than the stack holds.
func TestApproxInfluenceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, outliers := range []int{1, 3, 8, 11} {
		fx := buildBoxes(t, rng, outliers+2)
		for _, c := range []float64{0, 0.5, 1} {
			task := &influence.Task{
				Table: fx.table, Agg: aggregate.Avg{}, AggCol: fx.table.Schema().MustIndex("v"),
				Lambda: 0.3 + 0.4*rng.Float64(), C: c,
			}
			for g := 0; g < outliers+2; g++ {
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
			m := New(scorer, fx.space, Params{UseApproximation: true})
			for trial := 0; trial < 150; trial++ {
				pool := fx.pool(rng, outliers, 1+rng.Intn(40))
				for k := 0; k < 5; k++ {
					pstar := fx.box(rng)
					if k == 0 && len(pool) > 0 {
						pstar = pool[0].Pred.Merge(pool[len(pool)-1].Pred)
					}
					got, gotOK := m.approxInfluence(pstar, pool)
					want, wantOK := refApproxInfluence(m, pstar, pool)
					if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("outliers=%d c=%v trial %d: approxInfluence = (%v, %v), reference (%v, %v)",
							outliers, c, trial, got, gotOK, want, wantOK)
					}
				}
			}
		}
	}
}

// pool draws n random candidates with §6.3 statistics for nGroups outlier
// groups — or none, or the wrong number of them.
func (fx boxFixture) pool(rng *rand.Rand, nGroups, n int) []partition.Candidate {
	pool := make([]partition.Candidate, n)
	for i := range pool {
		q := partition.Candidate{Pred: fx.box(rng), HoldPenalty: rng.Float64() * 3}
		switch rng.Intn(8) {
		case 0:
			q.HoldPenalty = math.NaN()
		case 1:
			q.HoldPenalty = 0
		}
		groups := nGroups
		switch rng.Intn(6) {
		case 0: // no statistics
			pool[i] = q
			continue
		case 1: // statistics for another group count
			groups++
		}
		q.GroupCards = make([]float64, groups)
		q.CachedRows = make([]int, groups)
		for g := range q.GroupCards {
			q.GroupCards[g] = float64(rng.Intn(30))
			q.CachedRows[g] = rng.Intn(fx.table.NumRows())
			switch rng.Intn(6) {
			case 0:
				q.CachedRows[g] = -1
			case 1:
				q.GroupCards[g] = -rng.Float64()
			}
		}
		if rng.Intn(7) == 0 {
			q.CachedRows = q.CachedRows[:len(q.CachedRows)-1] // cards without rows
		}
		pool[i] = q
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
func (fx boxFixture) mergePool(rng *rand.Rand, nGroups, n int) []partition.Candidate {
	pool := fx.pool(rng, nGroups, n)
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
		pool[i].InfluencesHoldOut = rng.Intn(5) == 0
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
			!bitsEqual(g.HoldPenalty, w.HoldPenalty) || g.InfluencesHoldOut != w.InfluencesHoldOut {
			t.Fatalf("%s: candidate %d = %v (%v, pen %v, %v), reference %v (%v, pen %v, %v)", what, i,
				g.Pred, g.Score, g.HoldPenalty, g.InfluencesHoldOut, w.Pred, w.Score, w.HoldPenalty, w.InfluencesHoldOut)
		}
	}
}

// TestMergeMatchesReference holds the Box kernel's Merger to HEAD's
// Predicate Merger, candidate for candidate and bit for bit: over random
// pools on continuous and discrete columns (some members on a column too
// wide for a Box, so the fallback runs too) and over DT partitionings,
// with and without seeds (some off every piece's bounds, some too wide
// for a Box), top-quartile expansion and the approximation, on 1, 2 and 4
// workers.
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
			pool: fx.mergePool(rng, outliers, 10+rng.Intn(30))}
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
		pt, err := dtpkg.PartitionContext(context.Background(), scorer, space, dtpkg.Params{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cands := pt.Candidates(scorer)
		in := input{name: "dt c=" + strconv.FormatFloat(c, 'g', -1, 64), scorer: scorer, space: space, pool: cands}
		for i := 0; i < len(cands); i += 4 {
			in.pool = append(in.pool, cands[i]) // a duplicate piece
		}
		// Seeds: a higher c's merge, and a box off every piece's bounds.
		prev := New(scorer, space, Params{TopQuartileOnly: true, UseApproximation: true}).Merge(cands)
		in.seeds = append(prev[:min(3, len(prev))], partition.Candidate{Pred: predicate.MustNew(
			predicate.NewRangeClause(space.Columns()[0], space.Name(space.Columns()[0]), 12.345, 67.891, false))})
		inputs = append(inputs, in)
	}

	reg := obs.NewRegistry()
	ctx := obs.ContextWithRegistry(context.Background(), reg)
	for _, in := range inputs {
		for _, seeded := range []bool{false, true} {
			var seeds []partition.Candidate
			if seeded {
				seeds = in.seeds
			}
			for _, quartile := range []bool{false, true} {
				for _, approx := range []bool{false, true} {
					for _, workers := range []int{1, 2, 4} {
						params := Params{TopQuartileOnly: quartile, UseApproximation: approx}
						want := New(in.scorer, in.space, params).WithPool(partition.NewPool(ctx, workers)).refMergeSeeded(in.pool, seeds)
						got := New(in.scorer, in.space, params).WithPool(partition.NewPool(ctx, workers)).MergeSeeded(in.pool, seeds)
						sameMerge(t, in.name+" seeded="+strconv.FormatBool(seeded)+" quartile="+strconv.FormatBool(quartile)+
							" approx="+strconv.FormatBool(approx)+" workers="+strconv.Itoa(workers), got, want)
					}
				}
			}
		}
	}
	// The fallback and the kernel both ran.
	if reg.Counter("scorpion_merge_box_fallbacks_total").Value() == 0 || reg.Counter("scorpion_merge_attempts_total", "algo", "").Value() == 0 {
		t.Fatalf("fallbacks %v, attempts %v: want both > 0", reg.Counter("scorpion_merge_box_fallbacks_total").Value(),
			reg.Counter("scorpion_merge_attempts_total", "algo", "").Value())
	}
}
