package influence

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// latticeBoxes draws boxes over kernelTable's d, x, y and v: each column
// absent, a range (inclusive or exclusive top, a point, a bound at ±Inf or
// NaN, one reaching past the data) or, on d, a code set (sometimes empty);
// plus the match-everything and match-nothing boxes.
func latticeBoxes(rng *rand.Rand) []predicate.Predicate {
	bound := func(max float64) float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Inf(-1)
		case 1:
			return math.Inf(1)
		case 2:
			return math.NaN()
		case 3:
			return math.Floor(rng.Float64() * max) // on y's grid
		}
		return rng.Float64()*max*1.2 - max*0.1
	}
	ps := []predicate.Predicate{
		predicate.True(),
		predicate.MustNew(predicate.NewRangeClause(1, "x", math.Inf(-1), math.Inf(1), true)),
		predicate.MustNew(predicate.NewRangeClause(1, "x", 200, 300, false)),
		predicate.MustNew(predicate.NewSetClause(0, "d", nil)),
	}
	for len(ps) < 60 {
		var cs []predicate.Clause
		if rng.Intn(2) == 0 {
			var codes []int32
			for c := int32(0); c < 4; c++ {
				if rng.Intn(2) == 0 {
					codes = append(codes, c)
				}
			}
			cs = append(cs, predicate.NewSetClause(0, "d", codes))
		}
		for _, c := range []struct {
			col  int
			name string
			max  float64
		}{{1, "x", 100}, {2, "y", 10}, {3, "v", 80}} {
			if rng.Intn(2) == 0 {
				continue
			}
			lo, hi := bound(c.max), bound(c.max)
			if rng.Intn(5) == 0 {
				hi = lo
			}
			if lo > hi {
				lo, hi = hi, lo
			}
			cs = append(cs, predicate.Clause{Col: c.col, Name: c.name, Kind: relation.Continuous, Lo: lo, Hi: hi, HiInc: rng.Intn(2) == 0})
		}
		ps = append(ps, predicate.MustNew(cs...))
	}
	return ps
}

// TestLatticeMatchesSelect: every selection a Lattice folds for a box has
// the bits Scorer.Select folds for its predicate, Calls() advances by one
// per group per fold, and Parts — folded, or from the selection memo — is
// PartsMatched, over random boxes (inclusive and exclusive tops, ±Inf and
// NaN bounds and values, discrete clauses, empty and full selections), the
// three RowSet encodings and the five removable aggregates.
func TestLatticeMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tbl := kernelTable(rng, true)
	space := kernelSpace(t, tbl)
	n := tbl.NumRows()
	shapes := [][]int{
		groupShape(rng, 0, 8192, 60),
		groupShape(rng, 1000, 1200, 45),
		groupShape(rng, 2000, 2100, 1),
		groupShape(rng, 5000, 5600, 60),
	}
	preds := latticeBoxes(rng)
	compared := 0
	for _, enc := range []string{"dense", "runs", "sparse"} {
		var groups []Group
		for i, rows := range shapes {
			groups = append(groups, Group{Key: fmt.Sprint(i), Rows: encode(t, n, rows, enc), Direction: TooHigh - 2*Direction(i%2)})
		}
		for _, aggName := range []string{"sum", "count", "avg", "variance", "stddev"} {
			agg, _ := aggregate.ByName(aggName)
			aggCol := 3
			if aggName == "count" {
				aggCol = -1
			}
			task := &Task{Table: tbl, Agg: agg, AggCol: aggCol, Outliers: groups[:2], HoldOuts: groups[2:], Lambda: 0.6, C: 0.4}
			s, err := NewScorer(task)
			if err != nil {
				t.Fatal(err)
			}
			memo, err := NewScorer(task)
			if err != nil {
				t.Fatal(err)
			}
			memo.MemoizeSelections(space)
			lat, memoLat := s.NewLattice(space), memo.NewLattice(space)
			for _, p := range preds {
				b := boxOf(t, space, p)
				before := s.Calls()
				got := lat.fold(b, nil)
				if d := s.Calls() - before; d != int64(len(groups)) {
					t.Fatalf("a fold advanced Calls() by %d, want one per group (%d)", d, len(groups))
				}
				want := s.Select(p, nil)
				for g := range want {
					if got[g].matched != want[g].matched || !sameBits(got[g].sel.Sum, want[g].sel.Sum) ||
						!sameBits(got[g].sel.SumSq, want[g].sel.SumSq) || !sameBits(got[g].sel.N, want[g].sel.N) {
						t.Fatalf("enc=%s agg=%s %v group %d: lattice %+v, Select %+v", enc, aggName, p, g, got[g], want[g])
					}
					compared++
				}
				ref := s.PartsMatched(p)
				wantOut, wantHold, wantMatched := ref.OutMean, ref.HoldPen, ref.Matched
				for _, l := range []*Lattice{lat, memoLat, memoLat} {
					got := l.Parts(b, true, p)
					out, hold, matched := got.OutMean, got.HoldPen, got.Matched
					if !sameBits(out, wantOut) || !sameBits(hold, wantHold) || matched != wantMatched {
						t.Fatalf("enc=%s agg=%s %v: Parts = (%v, %v, %d), PartsMatched (%v, %v, %d)", enc, aggName, p, out, hold, matched, wantOut, wantHold, wantMatched)
					}
				}
			}
		}
	}
	t.Logf("%d selections compared", compared)
}

// TestLatticeOutlierBitsMatchEval: OutlierBits of a box, by its
// half-spaces and row by row, sets exactly the outlier-group positions
// whose rows Predicate.Eval matches, each group from a word boundary, and
// counts no call, over random boxes (the match-everything box among them)
// and the three RowSet encodings.
func TestLatticeOutlierBitsMatchEval(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tbl := kernelTable(rng, true)
	space := kernelSpace(t, tbl)
	n := tbl.NumRows()
	shapes := [][]int{
		groupShape(rng, 0, 8192, 60),
		groupShape(rng, 1000, 1200, 45),
		groupShape(rng, 2000, 2100, 1),
		groupShape(rng, 5000, 5600, 60),
	}
	preds := latticeBoxes(rng)
	for _, enc := range []string{"dense", "runs", "sparse"} {
		var groups []Group
		for i, rows := range shapes {
			groups = append(groups, Group{Key: fmt.Sprint(i), Rows: encode(t, n, rows, enc), Direction: TooHigh})
		}
		task := &Task{Table: tbl, Agg: aggregate.Sum{}, AggCol: 3, Outliers: groups[:3], HoldOuts: groups[3:], Lambda: 0.6, C: 0.4}
		s, err := NewScorer(task)
		if err != nil {
			t.Fatal(err)
		}
		lat := s.NewLattice(space)
		for _, p := range preds {
			rows := p.Eval(tbl, nil)
			var want []uint64
			for _, g := range task.Outliers {
				words := make([]uint64, (g.Rows.Count()+63)/64)
				i := 0
				g.Rows.ForEach(func(r int) {
					if rows.Contains(r) {
						words[i>>6] |= 1 << uint(i&63)
					}
					i++
				})
				want = append(want, words...)
			}
			b := boxOf(t, space, p)
			before := s.Calls()
			for _, boxed := range []bool{true, false} {
				if got := lat.OutlierBits(b, boxed, p); !slices.Equal(got, want) {
					t.Fatalf("enc=%s %v boxed=%v: OutlierBits %x, Eval %x", enc, p, boxed, got, want)
				}
			}
			if d := s.Calls() - before; d != 0 {
				t.Fatalf("OutlierBits advanced Calls() by %d", d)
			}
		}
	}
}

// TestLatticeBuiltOnFirstMiss: a lattice builds nothing — no Layout, no
// half-space — before its first fold, reuses a half-space every later box
// shares, and a run whose boxes the selection memo all holds builds
// nothing at all.
func TestLatticeBuiltOnFirstMiss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := kernelTable(rng, false)
	space := kernelSpace(t, tbl)
	n := tbl.NumRows()
	task := &Task{Table: tbl, Agg: aggregate.Sum{}, AggCol: 3, Lambda: 0.5, C: 0.3,
		Outliers: []Group{{Key: "o", Rows: encode(t, n, groupShape(rng, 0, 4000, 60), "dense"), Direction: TooHigh}},
		HoldOuts: []Group{{Key: "h", Rows: encode(t, n, groupShape(rng, 4000, 8000, 60), "sparse")}},
	}
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	s.MemoizeSelections(space)
	lat := s.NewLattice(space)
	if lat.l != nil || lat.half != nil {
		t.Fatal("a new lattice built its layout before any fold")
	}
	x := func(lo, hi float64) predicate.Predicate {
		return predicate.MustNew(predicate.NewRangeClause(1, "x", lo, hi, false))
	}
	preds := []predicate.Predicate{x(10, 40), x(10, 60), x(40, 60)}
	for i, p := range preds {
		boxParts(t, lat, p)
		// x ≥ 10, x < 40, x < 60 and x ≥ 40: the second box shares the
		// first's lower bound, the third both of its bounds with the others.
		wantMasks := []int64{2, 3, 4}[i]
		if masks, misses := lat.Stats(); masks != wantMasks || misses != int64(i+1) {
			t.Fatalf("after box %d Stats = (%d masks, %d misses), want (%d, %d)", i, masks, misses, wantMasks, i+1)
		}
	}
	if err := s.SetC(0.1); err != nil {
		t.Fatal(err)
	}
	warm := s.NewLattice(space)
	before := s.Calls()
	for _, p := range preds {
		boxParts(t, warm, p)
	}
	if masks, misses := warm.Stats(); masks != 0 || misses != 0 || warm.l != nil || s.Calls() != before {
		t.Fatalf("a run whose boxes the memo holds built %d masks, folded %d boxes (layout built: %v, %d calls)",
			masks, misses, warm.l != nil, s.Calls()-before)
	}
}

// TestLatticeKeepsWhatNoLookupFinds: a predicate no Box holds is scored by
// PartsMatched and a box with a NaN bound — never equal to itself — is
// folded; neither goes into the selection memo, so each is folded again on
// every use, and both score as PartsMatched does.
func TestLatticeKeepsWhatNoLookupFinds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := kernelTable(rng, true)
	space := kernelSpace(t, tbl)
	n := tbl.NumRows()
	task := &Task{Table: tbl, Agg: aggregate.Avg{}, AggCol: 3, Lambda: 0.7, C: 0.5,
		Outliers: []Group{{Key: "o", Rows: encode(t, n, groupShape(rng, 0, 8192, 60), "runs"), Direction: TooHigh}},
		HoldOuts: []Group{{Key: "h", Rows: encode(t, n, groupShape(rng, 1000, 3000, 45), "dense")}},
	}
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	s.MemoizeSelections(space)
	lat := s.NewLattice(space)
	nan := predicate.MustNew(predicate.Clause{Col: 1, Name: "x", Kind: relation.Continuous, Lo: math.NaN(), Hi: 50})
	// A code past 63 is one no Box's code set can hold.
	wide := predicate.MustNew(predicate.NewSetClause(0, "d", []int32{1, 64}), predicate.NewRangeClause(1, "x", 20, 90, true))
	if _, ok := space.Box(wide); ok {
		t.Fatalf("Box(%v) succeeded", wide)
	}
	for _, c := range []struct {
		what  string
		p     predicate.Predicate
		boxed bool
	}{{"NaN bound", nan, true}, {"no Box", wide, false}} {
		var b predicate.Box
		if c.boxed {
			b = boxOf(t, space, c.p)
		}
		want := s.PartsMatched(c.p)
		wantOut, wantHold, wantMatched := want.OutMean, want.HoldPen, want.Matched
		for rep := 0; rep < 2; rep++ {
			before := s.Calls()
			got := lat.Parts(b, c.boxed, c.p)
			out, hold, matched := got.OutMean, got.HoldPen, got.Matched
			if !sameBits(out, wantOut) || !sameBits(hold, wantHold) || matched != wantMatched {
				t.Fatalf("%s: Parts = (%v, %v, %d), PartsMatched (%v, %v, %d)", c.what, out, hold, matched, wantOut, wantHold, wantMatched)
			}
			if d := s.Calls() - before; d != 2 {
				t.Fatalf("%s, use %d: Calls() advanced by %d, want a fold of both groups", c.what, rep, d)
			}
		}
		if entries, _ := s.MemoSize(); entries != 0 {
			t.Fatalf("%s: the selection memo holds %d entries, want none", c.what, entries)
		}
	}
	if _, misses := lat.Stats(); misses != 2 {
		t.Fatalf("the lattice folded %d boxes, want the NaN box twice", misses)
	}
}

// TestLatticeFoldZeroAlloc: once a box's half-spaces are built, folding it
// again through a Lattice whose scorer keeps no selection memo allocates
// nothing, at 30 groups too, past any fixed-size stack buffer — nor does
// scoring it against a floor with Above, whole or declined.
func TestLatticeFoldZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := kernelTable(rng, false)
	space := kernelSpace(t, tbl)
	var groups []Group
	for g := 0; g < 30; g++ {
		rows := relation.NewRowSet(tbl.NumRows())
		rows.AddRange(g*250, g*250+120)
		groups = append(groups, Group{Key: fmt.Sprint(g), Rows: rows, Direction: TooHigh})
	}
	boxes := []predicate.Predicate{
		predicate.MustNew(predicate.NewSetClause(0, "d", []int32{0, 2}), predicate.NewRangeClause(1, "x", 10, 90, false)),
		predicate.MustNew(predicate.NewRangeClause(2, "y", 2, 7, true)),
	}
	for _, aggName := range []string{"sum", "count", "stddev"} {
		agg, _ := aggregate.ByName(aggName)
		aggCol := 3
		if aggName == "count" {
			aggCol = -1
		}
		s, err := NewScorer(&Task{Table: tbl, Agg: agg, AggCol: aggCol, Outliers: groups[:5], HoldOuts: groups[5:], Lambda: 0.5, C: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		lat := s.NewLattice(space)
		for _, p := range boxes {
			boxParts(t, lat, p) // builds the half-spaces
		}
		var sink float64
		for _, p := range boxes {
			b := boxOf(t, space, p)
			if n := testing.AllocsPerRun(100, func() {
				sc := lat.Parts(b, true, p)
				sink += sc.OutMean + sc.HoldPen
			}); n != 0 {
				t.Errorf("%s: a 30-group lattice fold of %v allocates %v times", aggName, p, n)
			}
			for _, floor := range []float64{math.Inf(-1), 0, math.Inf(1)} {
				if n := testing.AllocsPerRun(100, func() {
					score, hold, _ := lat.Above(b, true, p, floor)
					sink += score + hold
				}); n != 0 {
					t.Errorf("%s: a 30-group Above of %v at floor %v allocates %v times", aggName, p, floor, n)
				}
			}
		}
		_ = sink
	}
}

// TestLayoutContiguousMatchesInterleaved: a table whose groups are each one
// run of rows, whose layouts read the aggregate column in place, and a
// table with the same groups' rows dealt out row by row, whose layouts copy
// them, give every box the same Lattice parts and Layout.Score, bit for
// bit: within a group the rows keep their order, so every fold adds the
// same values in the same order.
func TestLayoutContiguousMatchesInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nasty := kernelTable(rng, true)
	sizes := []int{150, 70, 1, 130}
	var rows [][]relation.Row
	at := 0
	for _, n := range sizes {
		var g []relation.Row
		for i := 0; i < n; i++ {
			g = append(g, nasty.Row(at))
			at++
		}
		rows = append(rows, g)
	}
	build := func(interleave bool) (*relation.Table, []*relation.RowSet) {
		b := relation.NewBuilder(nasty.Schema())
		// The codes' first appearances, in one order in both tables, fix
		// the dictionaries.
		for c := 0; c < 4; c++ {
			b.MustAppend(relation.Row{relation.S(fmt.Sprintf("c%d", c)), relation.F(0), relation.F(0), relation.F(0)})
		}
		var members [][]int
		next := 4
		add := func(g, i int) {
			b.MustAppend(rows[g][i])
			for len(members) <= g {
				members = append(members, nil)
			}
			members[g] = append(members[g], next)
			next++
		}
		if interleave {
			for i := 0; i < sizes[0]; i++ {
				for g := range rows {
					if i < len(rows[g]) {
						add(g, i)
					}
				}
			}
		} else {
			for g := range rows {
				for i := range rows[g] {
					add(g, i)
				}
			}
		}
		tbl := b.Build()
		var sets []*relation.RowSet
		for _, m := range members {
			sets = append(sets, relation.RowSetOf(tbl.NumRows(), m...))
		}
		return tbl, sets
	}
	type side struct {
		s   *Scorer
		lat *Lattice
		l   *Layout
	}
	preds := latticeBoxes(rng)
	for _, aggName := range []string{"sum", "count", "avg", "stddev", "median"} {
		agg, _ := aggregate.ByName(aggName)
		aggCol := 3
		if aggName == "count" {
			aggCol = -1
		}
		var sides [2]side
		for k, interleave := range []bool{false, true} {
			tbl, sets := build(interleave)
			var groups []Group
			for g, rs := range sets {
				if !interleave && rs.Max()-rs.Min()+1 != rs.Count() {
					t.Fatalf("group %d of the contiguous table is not one run", g)
				}
				groups = append(groups, Group{Key: fmt.Sprint(g), Rows: rs, Direction: TooHigh - 2*Direction(g%2)})
			}
			s, err := NewScorer(&Task{Table: tbl, Agg: agg, AggCol: aggCol, Outliers: groups[:2], HoldOuts: groups[2:], Lambda: 0.6, C: 0.4})
			if err != nil {
				t.Fatal(err)
			}
			sides[k] = side{s: s, lat: s.NewLattice(kernelSpace(t, tbl)), l: s.NewLayout()}
		}
		for _, p := range preds {
			var outs, holds, infs [2]float64
			var matched [2]int
			for k := range sides {
				sd := &sides[k]
				sc := sd.lat.Parts(boxOf(t, sd.lat.Space(), p), true, p)
				outs[k], holds[k], matched[k] = sc.OutMean, sc.HoldPen, sc.Matched
				masks := make([][]uint64, sd.l.Groups())
				for g := range masks {
					masks[g] = make([]uint64, sd.l.Words(g))
					for i := range masks[g] {
						masks[g][i] = ^uint64(0) >> max(0, 64*(i+1)-sizes[g])
					}
					one := make([]uint64, sd.l.Words(g))
					for ci := range p.Clauses() {
						sd.l.ClauseMask(g, &p.Clauses()[ci], one)
						for i := range one {
							masks[g][i] &= one[i]
						}
					}
				}
				infs[k] = layoutInfluence(t, sd.l, masks)
			}
			if !sameBits(outs[0], outs[1]) || !sameBits(holds[0], holds[1]) || matched[0] != matched[1] {
				t.Fatalf("%s %v: contiguous lattice parts %v/%v/%d, interleaved %v/%v/%d", aggName, p, outs[0], holds[0], matched[0], outs[1], holds[1], matched[1])
			}
			if !sameBits(infs[0], infs[1]) {
				t.Fatalf("%s %v: contiguous layout influence %v, interleaved %v", aggName, p, infs[0], infs[1])
			}
			if want := sides[0].s.Influence(p); !sameBits(infs[0], want) {
				t.Fatalf("%s %v: layout influence %v, scorer %v", aggName, p, infs[0], want)
			}
		}
	}
}

// TestLatticeAboveMatchesParts: Above reports ok exactly when Parts'
// objective λ·outMean − (1−λ)·holdPenalty is above the floor, and then
// returns its bits and Parts' penalty, for floors at ±Inf, NaN, the exact
// score and its neighbours, over random boxes, λ and c at 0, ½ and 1, the
// five removable aggregates, NaN and ±Inf values, and the paths that score
// whole (the selection memo, a predicate handed over unboxed). A box Above
// declines counts no more calls than a whole fold.
func TestLatticeAboveMatchesParts(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tbl := kernelTable(rng, true)
	space := kernelSpace(t, tbl)
	n := tbl.NumRows()
	var groups []Group
	for i, rows := range [][]int{
		groupShape(rng, 0, 2000, 60),
		groupShape(rng, 2000, 2600, 45),
		groupShape(rng, 3000, 3100, 1),
		groupShape(rng, 4000, 4600, 60),
		groupShape(rng, 5000, 8192, 60),
	} {
		groups = append(groups, Group{Key: fmt.Sprint(i), Rows: encode(t, n, rows, "runs"), Direction: TooHigh - 2*Direction(i%2)})
	}
	preds := latticeBoxes(rng)
	compared, declined := 0, 0
	for _, aggName := range []string{"sum", "count", "avg", "variance", "stddev"} {
		agg, _ := aggregate.ByName(aggName)
		aggCol := 3
		if aggName == "count" {
			aggCol = -1
		}
		for _, lambda := range []float64{0, 0.5, 1} {
			for _, c := range []float64{0, 0.5, 1} {
				task := &Task{Table: tbl, Agg: agg, AggCol: aggCol, Outliers: groups[:2], HoldOuts: groups[2:], Lambda: lambda, C: c}
				s, err := NewScorer(task)
				if err != nil {
					t.Fatal(err)
				}
				memo, err := NewScorer(task)
				if err != nil {
					t.Fatal(err)
				}
				memo.MemoizeSelections(space)
				lat, memoLat := s.NewLattice(space), memo.NewLattice(space)
				for _, p := range preds {
					b := boxOf(t, space, p)
					out, hold := s.Parts(p)
					want := lambda*out - (1-lambda)*hold
					for _, floor := range []float64{math.Inf(-1), math.Inf(1), math.NaN(), want,
						math.Nextafter(want, math.Inf(-1)), math.Nextafter(want, math.Inf(1))} {
						for _, side := range []struct {
							lat   *Lattice
							boxed bool
						}{{lat, true}, {lat, false}, {memoLat, true}} {
							before := side.lat.s.Calls()
							score, holdPen, ok := side.lat.Above(b, side.boxed, p, floor)
							if calls := side.lat.s.Calls() - before; calls > int64(len(groups)) {
								t.Fatalf("Above counted %d calls, a whole fold counts %d", calls, len(groups))
							}
							if ok != (want > floor) {
								t.Fatalf("%s λ=%v c=%v boxed=%v %v floor %v: ok %v, objective %v", aggName, lambda, c, side.boxed, p, floor, ok, want)
							}
							if !ok {
								declined++
								continue
							}
							if !sameBits(score, want) || !sameBits(holdPen, hold) {
								t.Fatalf("%s λ=%v c=%v boxed=%v %v floor %v: Above (%v, %v), Parts (%v, %v)", aggName, lambda, c, side.boxed, p, floor, score, holdPen, want, hold)
							}
							compared++
						}
					}
				}
			}
		}
	}
	t.Logf("%d scores compared, %d declined", compared, declined)
}

// TestSquaresOnlyWhenRead: VARIANCE and STDDEV selections carry the SumSq
// State.Add folds over the matched rows, bit for bit; SUM, COUNT and AVG
// selections fold no squares, and their scores — through Parts, a Lattice
// and a Layout — are the bits of selections that do.
func TestSquaresOnlyWhenRead(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tbl := kernelTable(rng, true)
	space := kernelSpace(t, tbl)
	n := tbl.NumRows()
	var groups []Group
	for i, rows := range [][]int{
		groupShape(rng, 0, 3000, 60),
		groupShape(rng, 3000, 5000, 60),
		groupShape(rng, 5000, 8192, 60),
	} {
		groups = append(groups, Group{Key: fmt.Sprint(i), Rows: encode(t, n, rows, "dense"), Direction: TooHigh})
	}
	preds := latticeBoxes(rng)
	for _, aggName := range []string{"sum", "count", "avg", "variance", "stddev"} {
		agg, _ := aggregate.ByName(aggName)
		aggCol := 3
		if aggName == "count" {
			aggCol = -1
		}
		reads := aggName == "variance" || aggName == "stddev"
		task := &Task{Table: tbl, Agg: agg, AggCol: aggCol, Outliers: groups[:2], HoldOuts: groups[2:], Lambda: 0.7, C: 0.5}
		s, err := NewScorer(task)
		if err != nil {
			t.Fatal(err)
		}
		lat, layout := s.NewLattice(space), s.NewLayout()
		for _, p := range preds {
			// The reference fold keeps squares whatever the aggregate.
			full := make([]Selection, len(groups))
			for g, grp := range groups {
				grp.Rows.ForEach(func(r int) {
					if p.MatchMask(tbl, r, 1) != 0 {
						full[g].matched++
						full[g].sel.Add(task.Value(r))
					}
				})
			}
			sels := s.Select(p, nil)
			for g := range sels {
				wantSq := full[g].sel.SumSq
				if !reads {
					wantSq = 0
				}
				if sels[g].matched != full[g].matched || !sameBits(sels[g].sel.Sum, full[g].sel.Sum) ||
					!sameBits(sels[g].sel.N, full[g].sel.N) || !sameBits(sels[g].sel.SumSq, wantSq) {
					t.Fatalf("%s %v group %d: Select %+v, State.Add fold %+v", aggName, p, g, sels[g], full[g])
				}
			}
			want := s.ScoreMatched(full)
			wantOut, wantHold := want.OutMean, want.HoldPen
			if out, hold := s.Parts(p); !sameBits(out, wantOut) || !sameBits(hold, wantHold) {
				t.Fatalf("%s %v: Parts (%v, %v), with squares (%v, %v)", aggName, p, out, hold, wantOut, wantHold)
			}
			if got := lat.Parts(boxOf(t, space, p), true, p); !sameBits(got.OutMean, wantOut) || !sameBits(got.HoldPen, wantHold) {
				t.Fatalf("%s %v: lattice (%v, %v), with squares (%v, %v)", aggName, p, got.OutMean, got.HoldPen, wantOut, wantHold)
			}
			masks := make([][]uint64, layout.Groups())
			for g := range masks {
				masks[g] = make([]uint64, layout.Words(g))
				for i := range masks[g] {
					masks[g][i] = ^uint64(0) >> max(0, 64*(i+1)-groups[g].Rows.Count())
				}
				one := make([]uint64, layout.Words(g))
				for ci := range p.Clauses() {
					layout.ClauseMask(g, &p.Clauses()[ci], one)
					for i := range one {
						masks[g][i] &= one[i]
					}
				}
			}
			if got, want := layoutInfluence(t, layout, masks), task.Lambda*wantOut-(1-task.Lambda)*wantHold; !sameBits(got, want) {
				t.Fatalf("%s %v: layout influence %v, with squares %v", aggName, p, got, want)
			}
		}
	}
}

// TestHalfMaskLanes holds halfMask, whose full windows are built in lanes,
// and codeMask to the one-comparison-per-value definition, for the three
// bound ops and every window length from 1 to 64, over values and bounds
// among NaN, ±Inf, ±0, ±MaxFloat64, subnormals and ordinary numbers.
func TestHalfMaskLanes(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, 1, -1, 2.5, 40}
	rng := rand.New(rand.NewSource(29))
	vals := make([]float64, 64)
	codes := make([]int32, 64)
	for trial := 0; trial < 200; trial++ {
		for i := range vals {
			if rng.Intn(3) == 0 {
				vals[i] = rng.NormFloat64() * 10
			} else {
				vals[i] = specials[rng.Intn(len(specials))]
			}
			codes[i] = int32(rng.Intn(70)) - 3
		}
		set := rng.Uint64()
		for n := 1; n <= 64; n++ {
			for _, bound := range append(specials, vals[rng.Intn(n)]) {
				for _, op := range []uint8{geLo, ltHi, leHi} {
					var want uint64
					for i, v := range vals[:n] {
						if op == geLo && v >= bound || op == ltHi && v < bound || op == leHi && v <= bound {
							want |= 1 << uint(i)
						}
					}
					if got := halfMask(vals[:n], op, bound); got != want {
						t.Fatalf("halfMask(%v, op %d, %v) = %x, want %x", vals[:n], op, bound, got, want)
					}
				}
			}
			var want uint64
			for i, c := range codes[:n] {
				if c >= 0 && c < 64 && set>>uint(c)&1 != 0 {
					want |= 1 << uint(i)
				}
			}
			if got := codeMask(codes[:n], set); got != want {
				t.Fatalf("codeMask(%v, %x) = %x, want %x", codes[:n], set, got, want)
			}
		}
	}
}

// TestAboveBuildsOnlyWhatItFolds: a box Above declines on its outlier
// groups fills its half-spaces' outlier words only, and leaves every
// hold-out's words and built-flag untouched; a box it scores whole fills
// the rest, and scores as Parts does.
func TestAboveBuildsOnlyWhatItFolds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tbl := kernelTable(rng, false)
	space := kernelSpace(t, tbl)
	n := tbl.NumRows()
	var groups []Group
	for i, rows := range [][]int{
		groupShape(rng, 0, 2000, 60),
		groupShape(rng, 2000, 4000, 60),
		groupShape(rng, 4000, 6000, 60),
		groupShape(rng, 6000, 8192, 60),
	} {
		groups = append(groups, Group{Key: fmt.Sprint(i), Rows: encode(t, n, rows, "runs"), Direction: TooHigh})
	}
	s, err := NewScorer(&Task{Table: tbl, Agg: aggregate.Sum{}, AggCol: 3, Outliers: groups[:2], HoldOuts: groups[2:], Lambda: 0.5, C: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	lat := s.NewLattice(space)
	p := predicate.MustNew(predicate.NewSetClause(0, "d", []int32{0, 1, 3}), predicate.NewRangeClause(1, "x", 5, 95, false))
	b := boxOf(t, space, p)
	if _, _, ok := lat.Above(b, true, p, math.Inf(1)); ok {
		t.Fatal("Above passed a box over a +Inf floor")
	}
	if declined, _ := lat.Declines(); declined != 1 {
		t.Fatalf("Above declined %d boxes on their outlier groups, want 1", declined)
	}
	// x ≥ 5, x < 95 and d ∈ {0, 1, 3}, on the two outlier groups.
	if masks, filled := len(lat.half), lat.Filled(); masks != 3 || filled != 3*2 {
		t.Fatalf("a declined box allocated %d half-spaces and filled %d group bitsets, want 3 and 6", masks, filled)
	}
	flags := lat.off[len(lat.off)-1]
	for h, m := range lat.half {
		if m[flags] != 0b11 {
			t.Fatalf("%+v: built-flags %b, want the outlier groups' 11", h, m[flags])
		}
		for i, w := range m[lat.off[2]:flags] {
			if w != 0 {
				t.Fatalf("%+v: hold-out word %d is %x, want it unfilled", h, i, w)
			}
		}
	}
	out, hold := s.Parts(p)
	want := 0.5*out - 0.5*hold
	if score, holdPen, ok := lat.Above(b, true, p, math.Inf(-1)); !ok || !sameBits(score, want) || !sameBits(holdPen, hold) {
		t.Fatalf("Above = (%v, %v, %v), Parts (%v, %v)", score, holdPen, ok, want, hold)
	}
	if filled := lat.Filled(); filled != 3*4 {
		t.Fatalf("a whole fold left %d group bitsets filled, want 12", filled)
	}
}
