package influence

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// refScorer is the scoring computation as it was before the columnar
// kernel, kept as the reference the kernel is held to: one Predicate.Match
// per row per predicate, matched values appended to a slice, and Δ taken
// through Removable.State/Update/Remove/Recover (or Func.Compute on the
// remainder for a black-box aggregate). It caches nothing.
type refScorer struct {
	task *Task
	tab  *relation.Table
	rem  aggregate.Removable
}

func newRefScorer(task *Task) *refScorer {
	r := &refScorer{task: task, tab: task.Table.Data()}
	r.rem, _ = task.Agg.(aggregate.Removable)
	return r
}

func (r *refScorer) values(g Group) []float64 {
	var out []float64
	g.Rows.ForEach(func(row int) { out = append(out, r.task.Value(row)) })
	return out
}

func (r *refScorer) orig(g Group) (float64, aggregate.State) {
	if r.rem != nil {
		st := r.rem.State(r.values(g))
		return r.rem.Recover(st), st
	}
	return r.task.Agg.Compute(r.values(g)), aggregate.State{}
}

func refFinite(d float64) float64 {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return 0
	}
	return d
}

func (r *refScorer) delta(g Group, p predicate.Predicate) (float64, int) {
	t := r.task
	orig, state := r.orig(g)
	matched, total := 0, 0
	var matchedVals, restVals []float64
	g.Rows.ForEach(func(row int) {
		total++
		if p.Match(r.tab, row) {
			matched++
			matchedVals = append(matchedVals, t.Value(row))
		} else {
			restVals = append(restVals, t.Value(row))
		}
	})
	if matched == 0 {
		return 0, 0
	}
	if matched == total {
		if es, ok := t.Agg.(aggregate.EmptySafe); ok {
			return orig - es.EmptyValue(), matched
		}
		return 0, matched
	}
	var updated float64
	if r.rem != nil {
		updated = r.rem.Recover(r.rem.Remove(state, r.rem.State(matchedVals)))
	} else {
		updated = t.Agg.Compute(restVals)
	}
	return refFinite(orig - updated), matched
}

func (r *refScorer) scale(d float64, n int) float64 {
	if n == 0 {
		return 0
	}
	if r.task.C == 0 {
		return d
	}
	return d / math.Pow(float64(n), r.task.C)
}

func (r *refScorer) outlierInfluence(i int, p predicate.Predicate) float64 {
	g := r.task.Outliers[i]
	d, n := r.delta(g, p)
	return r.scale(d, n) * float64(g.Direction)
}

func (r *refScorer) holdOutInfluence(i int, p predicate.Predicate) float64 {
	d, n := r.delta(r.task.HoldOuts[i], p)
	return r.scale(d, n)
}

func (r *refScorer) parts(p predicate.Predicate) (outMean, holdPenalty float64) {
	sum := 0.0
	for i := range r.task.Outliers {
		sum += r.outlierInfluence(i, p)
	}
	outMean = sum / float64(len(r.task.Outliers))
	for i := range r.task.HoldOuts {
		if h := math.Abs(r.holdOutInfluence(i, p)); h > holdPenalty {
			holdPenalty = h
		}
	}
	return outMean, holdPenalty
}

func (r *refScorer) tupleOutlierInfluence(i, row int) float64 {
	t := r.task
	g := t.Outliers[i]
	orig, state := r.orig(g)
	var d float64
	if r.rem != nil {
		d = orig - r.rem.Recover(r.rem.Remove(state, r.rem.State([]float64{t.Value(row)})))
	} else {
		var rest []float64
		g.Rows.ForEach(func(rr int) {
			if rr != row {
				rest = append(rest, t.Value(rr))
			}
		})
		d = orig - t.Agg.Compute(rest)
	}
	return refFinite(d) * float64(g.Direction)
}

// kernelTable is an 8192-row table (wide enough that a scattered 60-row
// group stays under the run budget of the table and of a 6000-row window
// of it, so all three RowSet encodings can hold the group) with a discrete attribute d, continuous attributes x and y, and the
// aggregate column v.
func kernelTable(rng *rand.Rand, nasty bool) *relation.Table {
	schema := relation.MustSchema(
		relation.Column{Name: "d", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "y", Kind: relation.Continuous},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	for i := 0; i < 8192; i++ {
		v := rng.NormFloat64()*25 + 40 // negative values occur
		if nasty {
			switch rng.Intn(12) {
			case 0:
				v = math.NaN()
			case 1:
				v = math.Inf(1 - 2*rng.Intn(2))
			case 2:
				v = -v * 1e6
			}
		}
		b.MustAppend(relation.Row{
			relation.S(fmt.Sprintf("c%d", rng.Intn(4))),
			relation.F(rng.Float64() * 100),
			relation.F(math.Floor(rng.Float64() * 10)),
			relation.F(v),
		})
	}
	return b.Build()
}

// groupShape draws one group's member rows inside [lo, hi): a few runs, a
// scatter of single rows, or both; at most 60 rows, so the sparse encoding
// can hold it. Size 1 gives the single-row group.
func groupShape(rng *rand.Rand, lo, hi, size int) []int {
	in := map[int]bool{}
	for len(in) < size {
		if rng.Intn(3) == 0 {
			start := lo + rng.Intn(hi-lo)
			for r := start; r < hi && r < start+1+rng.Intn(12) && len(in) < size; r++ {
				in[r] = true
			}
		} else {
			in[lo+rng.Intn(hi-lo)] = true
		}
	}
	var rows []int
	for r := lo; r < hi; r++ {
		if in[r] {
			rows = append(rows, r)
		}
	}
	return rows
}

// encode builds the row set in the named encoding and checks it took.
func encode(t *testing.T, n int, rows []int, enc string) *relation.RowSet {
	t.Helper()
	var s *relation.RowSet
	switch enc {
	case "dense":
		s = relation.NewDenseRowSet(n)
		for _, r := range rows {
			s.Add(r)
		}
	case "runs":
		s = runsOf(t, n, rows)
	default:
		s = relation.RowSetOf(n, rows...)
	}
	if s.Encoding() != enc || s.Count() != len(rows) {
		t.Fatalf("wanted a %s row set of %d rows, got %s", enc, len(rows), s)
	}
	return s
}

// runsOf builds the ascending rows as a run-encoded set. Add and AddRange
// keep a fresh set of a few isolated rows sparse, so the set is decoded
// from its run-encoded codec form (layout in relation's codec.go), which
// keeps the encoding the payload names.
func runsOf(t *testing.T, n int, rows []int) *relation.RowSet {
	t.Helper()
	var spans [][2]int
	for _, r := range rows {
		if k := len(spans); k > 0 && spans[k-1][1] == r {
			spans[k-1][1]++
		} else {
			spans = append(spans, [2]int{r, r + 1})
		}
	}
	runsTag := relation.FullRowSet(2).AppendBinary(nil)[1]
	buf := binary.AppendUvarint([]byte{relation.RowSetCodecVersion, runsTag}, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(spans)))
	prevHi := 0
	for _, sp := range spans {
		buf = binary.AppendUvarint(buf, uint64(sp[0]-prevHi))
		buf = binary.AppendUvarint(buf, uint64(sp[1]-sp[0]))
		prevHi = sp[1]
	}
	s, _, err := relation.DecodeRowSet(buf)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// kernelPredicates draws predicates over d, x, y and the aggregate column v
// itself: single clauses, conjunctions, a match-everything range (whole-
// group deletion) and a match-nothing range.
func kernelPredicates(rng *rand.Rand, tbl *relation.Table) []predicate.Predicate {
	rangeOn := func(col int, name string, max float64) predicate.Clause {
		lo := rng.Float64() * max
		return predicate.NewRangeClause(col, name, lo, lo+rng.Float64()*(max-lo), rng.Intn(2) == 0)
	}
	setOn := func() predicate.Clause {
		codes := []int32{int32(rng.Intn(4))}
		if rng.Intn(2) == 0 {
			codes = append(codes, int32(rng.Intn(4)))
		}
		return predicate.NewSetClause(0, "d", codes)
	}
	ps := []predicate.Predicate{
		predicate.MustNew(predicate.NewRangeClause(1, "x", -1, 101, true)), // every row
		predicate.MustNew(predicate.NewRangeClause(1, "x", 200, 300, false)),
		predicate.MustNew(predicate.NewRangeClause(3, "v", 40, math.Inf(1), true)),
	}
	for i := 0; i < 6; i++ {
		ps = append(ps,
			predicate.MustNew(rangeOn(1, "x", 100)),
			predicate.MustNew(setOn()),
			predicate.MustNew(rangeOn(1, "x", 100), rangeOn(2, "y", 10)),
			predicate.MustNew(setOn(), rangeOn(2, "y", 10), rangeOn(3, "v", 80)),
		)
	}
	return ps
}

// sameBits is bit equality, except that any NaN equals any NaN: which
// operand's payload and sign survive an addition of two NaNs is the
// hardware's choice of operand order, which the compiler is free to swap
// (the race build does), so NaN payloads are not part of the contract.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestKernelMatchesReference holds the columnar kernel to the per-row
// reference, bit for bit, over seeded random tables × aggregates × the
// three RowSet encodings × {table, view window}, with failure_test.go's
// nasty inputs mixed in: NaN and ±Inf values, single-row groups,
// whole-group deletion, negative values under SUM, discrete clauses and a
// predicate on the aggregate column.
func TestKernelMatchesReference(t *testing.T) {
	aggs := []string{"sum", "count", "avg", "variance", "stddev", "median"}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := kernelTable(rng, seed%2 == 0)
		// Groups live in [1000, 7000) so that a view window can hold them.
		shapes := [][]int{
			groupShape(rng, 1000, 7000, 60),
			groupShape(rng, 1000, 1200, 45),
			groupShape(rng, 1000, 7000, 1),
			groupShape(rng, 2000, 2100, 60),
		}
		preds := kernelPredicates(rng, tbl)
		for _, windowed := range []bool{false, true} {
			var rel relation.Relation = tbl
			off := 0
			if windowed {
				off = 1000
				rel = tbl.Window(1000, 7000)
			}
			for _, enc := range []string{"dense", "runs", "sparse"} {
				var groups []Group
				for i, rows := range shapes {
					local := make([]int, len(rows))
					for k, r := range rows {
						local[k] = r - off
					}
					dir := TooHigh
					if i == 1 {
						dir = TooLow
					}
					groups = append(groups, Group{Key: fmt.Sprint(i), Rows: encode(t, rel.NumRows(), local, enc), Direction: dir})
				}
				for _, aggName := range aggs {
					agg, err := aggregate.ByName(aggName)
					if err != nil {
						t.Fatal(err)
					}
					for _, aggCol := range []int{3, -1} {
						if aggCol < 0 && aggName != "count" {
							continue
						}
						task := &Task{
							Table: rel, Agg: agg, AggCol: aggCol,
							Outliers: groups[:2], HoldOuts: groups[2:],
							Lambda: 0.6, C: 0.3,
						}
						name := fmt.Sprintf("seed=%d window=%v enc=%s agg=%s col=%d", seed, windowed, enc, aggName, aggCol)
						checkKernel(t, name, task, preds)
					}
				}
			}
		}
	}
}

func checkKernel(t *testing.T, name string, task *Task, preds []predicate.Predicate) {
	t.Helper()
	s, err := NewScorer(task)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref := newRefScorer(task)
	for _, p := range preds {
		for i := range task.Outliers {
			if got, want := s.OutlierInfluence(i, p), ref.outlierInfluence(i, p); !sameBits(got, want) {
				t.Fatalf("%s: OutlierInfluence(%d, %v) = %v, reference %v", name, i, p, got, want)
			}
		}
		for i := range task.HoldOuts {
			if got, want := s.HoldOutInfluence(i, p), ref.holdOutInfluence(i, p); !sameBits(got, want) {
				t.Fatalf("%s: HoldOutInfluence(%d, %v) = %v, reference %v", name, i, p, got, want)
			}
		}
		gotOut, gotHold := s.Parts(p)
		wantOut, wantHold := ref.parts(p)
		if !sameBits(gotOut, wantOut) || !sameBits(gotHold, wantHold) {
			t.Fatalf("%s: Parts(%v) = (%v, %v), reference (%v, %v)", name, p, gotOut, gotHold, wantOut, wantHold)
		}
	}
	for i, g := range task.Outliers {
		g.Rows.ForEach(func(row int) {
			if got, want := s.TupleOutlierInfluence(i, row), ref.tupleOutlierInfluence(i, row); !sameBits(got, want) {
				t.Fatalf("%s: TupleOutlierInfluence(%d, %d) = %v, reference %v", name, i, row, got, want)
			}
		})
	}
}

// TestLayoutMatchesScorer checks the position-mask entry point against the
// predicate one: a conjunction scored through Layout.Score as the AND of
// its clauses' masks, against a floor of −Inf, has the bits of
// Scorer.Influence, folds every group and counts no call.
func TestLayoutMatchesScorer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := kernelTable(rng, true)
	var groups []Group
	for i, size := range []int{200, 64, 1, 129} {
		rows := relation.NewRowSet(tbl.NumRows())
		for rows.Count() < size {
			rows.Add(rng.Intn(tbl.NumRows()))
		}
		groups = append(groups, Group{Key: fmt.Sprint(i), Rows: rows, Direction: TooHigh})
	}
	for _, aggName := range []string{"sum", "avg", "stddev", "median"} {
		agg, _ := aggregate.ByName(aggName)
		task := &Task{Table: tbl, Agg: agg, AggCol: 3, Outliers: groups[:2], HoldOuts: groups[2:], Lambda: 0.5, C: 0.2}
		s, err := NewScorer(task)
		if err != nil {
			t.Fatal(err)
		}
		l := s.NewLayout()
		for _, p := range kernelPredicates(rng, tbl) {
			masks := make([][]uint64, l.Groups())
			for g := range masks {
				masks[g] = make([]uint64, l.Words(g))
				for i := range masks[g] {
					masks[g][i] = ^uint64(0)
				}
				one := make([]uint64, l.Words(g))
				for ci := range p.Clauses() {
					l.ClauseMask(g, &p.Clauses()[ci], one)
					for i := range one {
						masks[g][i] &= one[i]
					}
				}
			}
			before := s.Calls()
			got := layoutInfluence(t, l, masks)
			if n := s.Calls() - before; n != 0 {
				t.Fatalf("layout scoring counted %d calls, want none", n)
			}
			if want := s.Influence(p); !sameBits(got, want) {
				t.Fatalf("agg=%s: layout influence of %v = %v, scorer %v", aggName, p, got, want)
			}
		}
	}
}

// TestLayoutGateMatchesInfluence holds Layout.Score against a floor, as
// NAIVE calls it, to its score against −Inf on random masks: a returned
// score has those bits, and a declined predicate scores below the floor.
// The outlier bound, the score of the outlier groups alone (their masks
// with every hold-out's emptied), is never below the whole score, and a
// predicate is declined on its outlier groups, folding no hold-out and
// never asking for the hold-out masks, exactly when that bound is below the
// floor. The hold-out masks, handed over lazily, are asked for at most
// once, and the lazy call returns what the call with every mask filled
// returns. A NaN never gates, as the floor or as the bound (the nasty
// table's NaN values under SUM make NaN bounds). The one declined predicate
// that does not score below the floor scores NaN, which ranks below every
// floor: at λ = 1 an infinite hold-out penalty (an Inf value under SUM,
// whole group deleted) turns the objective's 0·Inf into NaN.
func TestLayoutGateMatchesInfluence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := kernelTable(rng, true)
	var groups []Group
	for i, size := range []int{200, 64, 1, 129, 70} {
		rows := relation.NewRowSet(tbl.NumRows())
		for rows.Count() < size {
			rows.Add(rng.Intn(tbl.NumRows()))
		}
		groups = append(groups, Group{Key: fmt.Sprint(i), Rows: rows, Direction: Direction(1 - 2*(i%2))})
	}
	const nOut = 2
	randomMasks := func(l *Layout) [][]uint64 {
		masks := make([][]uint64, l.Groups())
		for g := range masks {
			n := groups[g].Rows.Count()
			masks[g] = make([]uint64, l.Words(g))
			density := []float64{0, 1, 0.02, 0.3, 0.9}[rng.Intn(5)]
			for i := 0; i < n; i++ {
				if rng.Float64() < density {
					masks[g][i>>6] |= 1 << (i & 63)
				}
			}
		}
		return masks
	}
	// withHoldOuts copies masks with every hold-out's mask set to fill(g).
	withHoldOuts := func(masks [][]uint64, fill func(g int) []uint64) [][]uint64 {
		out := append([][]uint64(nil), masks...)
		for g := nOut; g < len(out); g++ {
			out[g] = fill(g)
		}
		return out
	}
	nanBounds, declined, early := 0, 0, 0
	for _, aggName := range []string{"sum", "avg", "stddev", "median"} {
		for _, lambda := range []float64{0, 0.5, 1} {
			agg, _ := aggregate.ByName(aggName)
			task := &Task{Table: tbl, Agg: agg, AggCol: 3, Outliers: groups[:nOut], HoldOuts: groups[nOut:], Lambda: lambda, C: 0.2}
			s, err := NewScorer(task)
			if err != nil {
				t.Fatal(err)
			}
			l := s.NewLayout()
			for trial := 0; trial < 60; trial++ {
				masks := randomMasks(l)
				want := layoutInfluence(t, l, masks)
				bound := layoutInfluence(t, l, withHoldOuts(masks, func(g int) []uint64 { return make([]uint64, l.Words(g)) }))
				if math.IsNaN(bound) {
					nanBounds++
				} else if bound < want {
					t.Fatalf("agg=%s λ=%v: bound %v below the objective %v", aggName, lambda, bound, want)
				}
				for _, floor := range []float64{math.Inf(-1), math.Inf(1), math.NaN(), want,
					math.Nextafter(want, math.Inf(1)), math.Nextafter(want, math.Inf(-1)), rng.NormFloat64() * 50} {
					name := fmt.Sprintf("agg=%s λ=%v floor=%v", aggName, lambda, floor)
					before := s.Calls()
					// The lazy masks start as every row of each hold-out, so a
					// hold-out folded before it is asked for scores wrong.
					lazy := withHoldOuts(masks, func(g int) []uint64 {
						all := make([]uint64, l.Words(g))
						for i := 0; i < groups[g].Rows.Count(); i++ {
							all[i>>6] |= 1 << (i & 63)
						}
						return all
					})
					asked := 0
					score, folded, ok := l.Score(lazy, func() { asked++; copy(lazy[nOut:], masks[nOut:]) }, floor)
					if eager, eagerFolded, eagerOK := l.Score(masks, nil, floor); eagerOK != ok || eagerFolded != folded || !sameBits(eager, score) {
						t.Fatalf("%s: lazy hold-out masks give %v, %d, %v; filled ones %v, %d, %v", name, score, folded, ok, eager, eagerFolded, eagerOK)
					}
					if s.Calls() != before {
						t.Fatalf("%s: Score counted calls", name)
					}
					gated := !ok && folded == nOut
					if gated != (bound < floor) {
						t.Fatalf("%s: declined on the outliers %v, but the bound %v is below the floor %v", name, gated, bound, bound < floor)
					}
					if want := min(1, folded-nOut); asked != want {
						t.Fatalf("%s: the hold-out masks were asked for %d times after folding %d groups", name, asked, folded)
					}
					if !ok && folded > nOut {
						early++
					}
					if math.IsNaN(floor) || math.IsNaN(bound) {
						if !ok {
							t.Fatalf("%s: a NaN gated (bound %v)", name, bound)
						}
					}
					if ok {
						if !sameBits(score, want) {
							t.Fatalf("%s: gated score %v, Influence %v", name, score, want)
						}
						if folded != len(groups) {
							t.Fatalf("%s: a returned score folded %d groups", name, folded)
						}
						continue
					}
					declined++
					if !(want < floor) && !(lambda == 1 && math.IsNaN(want)) {
						t.Fatalf("%s: declined, but Influence %v is not below the floor", name, want)
					}
				}
			}
		}
	}
	if nanBounds == 0 || declined == 0 || early == 0 {
		t.Fatalf("uncovered: %d NaN bounds, %d declined, %d early exits", nanBounds, declined, early)
	}
}

// TestDeltaZeroAlloc pins the incremental path's allocation count: scoring
// an arbitrary predicate, or a tuple, against a group allocates nothing —
// whatever the group's encoding.
func TestDeltaZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := kernelTable(rng, false)
	scattered := relation.NewRowSet(tbl.NumRows())
	for scattered.Count() < 500 {
		scattered.Add(rng.Intn(tbl.NumRows()))
	}
	few := relation.RowSetOf(tbl.NumRows(), 5, 900, 901, 8000)
	p := predicate.MustNew(
		predicate.NewSetClause(0, "d", []int32{0, 2}),
		predicate.NewRangeClause(1, "x", 10, 90, false),
	)
	for _, rows := range []*relation.RowSet{relation.FullRowSet(tbl.NumRows()), scattered, few} {
		task := &Task{
			Table: tbl, Agg: aggregate.StdDev{}, AggCol: 3,
			Outliers: []Group{{Key: "o", Rows: rows, Direction: TooHigh}},
			Lambda:   0.5, C: 0.2,
		}
		s, err := NewScorer(task)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Incremental() {
			t.Fatal("stddev must take the incremental path")
		}
		row := rows.Min()
		var sink float64
		if n := testing.AllocsPerRun(100, func() { sink += s.OutlierInfluence(0, p) }); n != 0 {
			t.Errorf("%s group: OutlierInfluence allocates %v times per call", rows.Encoding(), n)
		}
		if n := testing.AllocsPerRun(100, func() { sink += s.TupleOutlierInfluence(0, row) }); n != 0 {
			t.Errorf("%s group: TupleOutlierInfluence allocates %v times per call", rows.Encoding(), n)
		}
		_ = sink
	}
}

// TestExtendMatchesSelect: selections folded over a prefix of each group
// and extended over the rest hold the bits of selections folded over the
// whole group, and Score of them is Parts — over the three RowSet
// encodings, the removable aggregates, and cut points before, inside and after the groups.
func TestExtendMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := kernelTable(rng, false)
	n := tbl.NumRows()
	shapes := [][]int{
		groupShape(rng, 1000, 7000, 60),
		groupShape(rng, 1000, 1200, 45),
		groupShape(rng, 2000, 2100, 60),
	}
	preds := kernelPredicates(rng, tbl)
	for _, enc := range []string{"dense", "runs", "sparse"} {
		var groups []Group
		for i, rows := range shapes {
			groups = append(groups, Group{Key: fmt.Sprint(i), Rows: encode(t, n, rows, enc), Direction: TooHigh})
		}
		for _, aggName := range []string{"sum", "count", "avg", "variance", "stddev"} {
			agg, _ := aggregate.ByName(aggName)
			task := &Task{Table: tbl, Agg: agg, AggCol: 3, Outliers: groups[:1], HoldOuts: groups[1:], Lambda: 0.6, C: 0.3}
			full, err := NewScorer(task)
			if err != nil {
				t.Fatal(err)
			}
			for _, from := range []int{0, 1100, 2050, 4000, n} {
				prefix := *task
				prefix.Outliers, prefix.HoldOuts = nil, nil
				for i, g := range groups {
					g.Rows = g.Rows.Slice(0, from).Grow(relation.NewRowSet(n - from))
					if i == 0 {
						prefix.Outliers = append(prefix.Outliers, g)
					} else {
						prefix.HoldOuts = append(prefix.HoldOuts, g)
					}
				}
				old, err := NewScorer(&prefix)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range preds {
					sels := old.Select(p, nil)
					before := full.Calls()
					tested := full.Extend(p, from, sels)
					if got := full.Calls() - before; got != int64(len(groups)) {
						t.Fatalf("Extend counted %d calls, want one per group (%d)", got, len(groups))
					}
					wantTested := 0
					for _, g := range groups {
						wantTested += g.Rows.Slice(from, n).Count()
					}
					if tested != wantTested {
						t.Fatalf("Extend from %d tested %d rows, want %d", from, tested, wantTested)
					}
					whole := full.Select(p, nil)
					for g := range whole {
						if sels[g].matched != whole[g].matched || !sameBits(sels[g].sel.Sum, whole[g].sel.Sum) ||
							!sameBits(sels[g].sel.SumSq, whole[g].sel.SumSq) || !sameBits(sels[g].sel.N, whole[g].sel.N) {
							t.Fatalf("enc=%s agg=%s from=%d group %d: extended %+v, whole %+v", enc, aggName, from, g, sels[g], whole[g])
						}
					}
					got := full.ScoreMatched(sels)
					gotOut, gotHold := got.OutMean, got.HoldPen
					wantOut, wantHold := full.Parts(p)
					if !sameBits(gotOut, wantOut) || !sameBits(gotHold, wantHold) {
						t.Fatalf("enc=%s agg=%s from=%d: Score = (%v, %v), Parts (%v, %v)", enc, aggName, from, gotOut, gotHold, wantOut, wantHold)
					}
				}
			}
		}
	}
}

// TestTailFoldZeroAlloc pins the refresh kernel's allocation count: Parts,
// extending kept selections over a tail and scoring them allocate nothing,
// whatever the group's encoding.
func TestTailFoldZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tbl := kernelTable(rng, false)
	n := tbl.NumRows()
	scattered := relation.NewRowSet(n)
	for scattered.Count() < 500 {
		scattered.Add(rng.Intn(n))
	}
	p := predicate.MustNew(
		predicate.NewSetClause(0, "d", []int32{0, 2}),
		predicate.NewRangeClause(1, "x", 10, 90, false),
	)
	for _, rows := range []*relation.RowSet{relation.FullRowSet(n), scattered, relation.RowSetOf(n, 5, 900, 901, 8000)} {
		task := &Task{
			Table: tbl, Agg: aggregate.StdDev{}, AggCol: 3,
			Outliers: []Group{{Key: "o", Rows: rows, Direction: TooHigh}},
			HoldOuts: []Group{{Key: "h", Rows: rows}},
			Lambda:   0.5, C: 0.2,
		}
		s, err := NewScorer(task)
		if err != nil {
			t.Fatal(err)
		}
		sels := s.Select(p, nil)
		var sink float64
		if a := testing.AllocsPerRun(100, func() { o, h := s.Parts(p); sink += o + h }); a != 0 {
			t.Errorf("%s group: Parts allocates %v times per call", rows.Encoding(), a)
		}
		if a := testing.AllocsPerRun(100, func() {
			s.Extend(p, n-200, sels)
			sc := s.ScoreMatched(sels)
			sink += sc.OutMean + sc.HoldPen
		}); a != 0 {
			t.Errorf("%s group: Extend and Score allocate %v times per call", rows.Encoding(), a)
		}
		_ = sink
	}
}
