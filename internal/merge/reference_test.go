package merge

import (
	"math"
	"math/rand"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
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

// boxFixture is a table of groups over two continuous columns (x, y) and
// one discrete column (d), with its search space.
type boxFixture struct {
	table *relation.Table
	space *predicate.Space
	codes int // distinct codes of d
}

func buildBoxes(t *testing.T, rng *rand.Rand, groups int) boxFixture {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "y", Kind: relation.Continuous},
		relation.Column{Name: "d", Kind: relation.Discrete},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	const codes = 6
	for g := 0; g < groups; g++ {
		for i := 0; i < 40; i++ {
			b.MustAppend(relation.Row{
				relation.S(string(rune('A' + g))),
				relation.F(rng.Float64() * 100),
				relation.F(float64(rng.Intn(20))),
				relation.S(string(rune('a' + rng.Intn(codes)))),
				relation.F(rng.NormFloat64()*10 + 50),
			})
		}
	}
	tbl := b.Build()
	space, err := predicate.NewSpace(tbl, []string{"x", "y", "d"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return boxFixture{table: tbl, space: space, codes: codes}
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
