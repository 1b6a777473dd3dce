package influence

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// boxOf converts p over space, failing the test when a Box cannot hold it.
func boxOf(t testing.TB, space *predicate.Space, p predicate.Predicate) predicate.Box {
	t.Helper()
	b, ok := space.Box(p)
	if !ok {
		t.Fatalf("Box(%v) failed", p)
	}
	return b
}

// boxParts scores p through lat by its Box, as a DT run does.
func boxParts(t testing.TB, lat *Lattice, p predicate.Predicate) (outMean, holdPenalty float64) {
	t.Helper()
	outMean, holdPenalty, _ = lat.Parts(boxOf(t, lat.Space(), p), true, p)
	return outMean, holdPenalty
}

// kernelSpace is the space of kernelTable's attributes.
func kernelSpace(t testing.TB, tbl *relation.Table) *predicate.Space {
	t.Helper()
	space, err := predicate.NewSpace(tbl, []string{"d", "x", "y", "v"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// voltageSpace is the space of the running example's voltage attribute.
func voltageSpace(t testing.TB, tbl *relation.Table) *predicate.Space {
	t.Helper()
	space, err := predicate.NewSpace(tbl, []string{"voltage"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return space
}

// TestSelectionMemoSurvivesSetC: with the selection memo on, a box scored
// once is re-scored at every later c without testing a row — Calls()
// advances by 0 — and with the bits a freshly built scorer at that c gets,
// through a Lattice's Parts (and Influence, which the selection memo does
// not serve, keeps its bits), over the three RowSet encodings and the
// removable aggregates.
func TestSelectionMemoSurvivesSetC(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tbl := kernelTable(rng, false)
	n := tbl.NumRows()
	shapes := [][]int{
		groupShape(rng, 1000, 7000, 60),
		groupShape(rng, 1000, 1200, 45),
		groupShape(rng, 2000, 2100, 60),
	}
	preds := kernelPredicates(rng, tbl)
	space := kernelSpace(t, tbl)
	cs := []float64{0.5, 0, 1, 0.25, 0.5, 2}
	for _, enc := range []string{"dense", "runs", "sparse"} {
		var groups []Group
		for i, rows := range shapes {
			groups = append(groups, Group{Key: fmt.Sprint(i), Rows: encode(t, n, rows, enc), Direction: TooHigh})
		}
		for _, aggName := range []string{"sum", "count", "avg", "variance", "stddev"} {
			agg, _ := aggregate.ByName(aggName)
			task := func(c float64) *Task {
				return &Task{Table: tbl, Agg: agg, AggCol: 3, Outliers: groups[:2], HoldOuts: groups[2:], Lambda: 0.6, C: c}
			}
			memo, err := NewScorer(task(cs[0]))
			if err != nil {
				t.Fatal(err)
			}
			memo.MemoizeSelections(space)
			for _, p := range preds {
				boxParts(t, memo.NewLattice(space), p)
			}
			for _, c := range cs {
				if err := memo.SetC(c); err != nil {
					t.Fatal(err)
				}
				fresh, err := NewScorer(task(c))
				if err != nil {
					t.Fatal(err)
				}
				lat := memo.NewLattice(space)
				for _, p := range preds {
					before := memo.Calls()
					gotOut, gotHold := boxParts(t, lat, p)
					if d := memo.Calls() - before; d != 0 {
						t.Fatalf("enc=%s agg=%s c=%v: a memoized box advanced Calls() by %d", enc, aggName, c, d)
					}
					wantOut, wantHold := fresh.Parts(p)
					if !sameBits(gotOut, wantOut) || !sameBits(gotHold, wantHold) {
						t.Fatalf("enc=%s agg=%s c=%v %s: memo Parts = (%v, %v), fresh (%v, %v)", enc, aggName, c, p.Key(), gotOut, gotHold, wantOut, wantHold)
					}
					if got, want := memo.Influence(p), fresh.Influence(p); !sameBits(got, want) {
						t.Fatalf("enc=%s agg=%s c=%v %s: memo Influence = %v, fresh %v", enc, aggName, c, p.Key(), got, want)
					}
				}
			}
		}
	}
}

// TestSelectionMemoCap: past maxMemoSelections boxes the memo stores no
// more, whichever lattices fill it, and a box it could not keep still
// scores right.
func TestSelectionMemoCap(t *testing.T) {
	task := paperTask(t)
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	space := voltageSpace(t, task.Table.Data())
	s.MemoizeSelections(space)
	lat := s.NewLattice(space)
	fresh, err := NewScorer(paperTask(t))
	if err != nil {
		t.Fatal(err)
	}
	col := task.Table.Schema().MustIndex("voltage")
	box := func(i int) predicate.Predicate {
		lo := 2 + float64(i)*1e-4
		return predicate.MustNew(predicate.NewRangeClause(col, "voltage", lo, lo+0.5, false))
	}
	const boxes = maxMemoSelections + 500
	for w := 0; w < 4; w++ {
		lat := s.NewLattice(space)
		for i := w; i < boxes; i += 4 {
			boxParts(t, lat, box(i))
		}
	}
	if got := len(s.sels.m); got != maxMemoSelections {
		t.Fatalf("selection memo holds %d entries, want the cap %d", got, maxMemoSelections)
	}
	if entries, _ := s.MemoSize(); entries != maxMemoSelections {
		t.Fatalf("MemoSize reports %d entries, want %d", entries, maxMemoSelections)
	}
	for _, i := range []int{0, boxes / 2, boxes - 1} {
		gotOut, gotHold := boxParts(t, lat, box(i))
		wantOut, wantHold := fresh.Parts(box(i))
		if !sameBits(gotOut, wantOut) || !sameBits(gotHold, wantHold) {
			t.Fatalf("box %d at the cap: (%v, %v), want (%v, %v)", i, gotOut, gotHold, wantOut, wantHold)
		}
	}
	if got := len(s.sels.m); got != maxMemoSelections {
		t.Fatalf("selection memo grew past the cap to %d entries", got)
	}
}

// TestSelectionMemoStats: MemoStats and MemoSize count the selection memo
// — a miss and an entry for a box's first fold, a hit for each re-score
// after SetC — and a scorer without the memo keeps none: it counts and
// holds nothing, and its lattices fold the box again after SetC.
func TestSelectionMemoStats(t *testing.T) {
	tbl := sensorsTable(t)
	p := voltagePredicate(tbl)
	space := voltageSpace(t, tbl)
	s, err := NewScorer(paperTask(t))
	if err != nil {
		t.Fatal(err)
	}
	s.MemoizeSelections(space)
	boxParts(t, s.NewLattice(space), p)
	if hits, misses := s.MemoStats(); hits != 0 || misses != 1 {
		t.Fatalf("after the first fold MemoStats = %d hits, %d misses; want 0, 1", hits, misses)
	}
	entries, bytes := s.MemoSize()
	if entries != 1 || bytes < int64(unsafe.Sizeof(predicate.Box{}))+3*32 {
		t.Fatalf("MemoSize = %d entries, %d bytes; want 1 entry of at least a Box + 3 selections", entries, bytes)
	}
	for _, c := range []float64{0.5, 0.2} {
		if err := s.SetC(c); err != nil {
			t.Fatal(err)
		}
		boxParts(t, s.NewLattice(space), p)
	}
	if hits, misses := s.MemoStats(); hits != 2 || misses != 1 {
		t.Fatalf("after two re-scores MemoStats = %d hits, %d misses; want 2, 1", hits, misses)
	}

	plain, err := NewScorer(paperTask(t))
	if err != nil {
		t.Fatal(err)
	}
	boxParts(t, plain.NewLattice(space), p)
	if err := plain.SetC(0.5); err != nil {
		t.Fatal(err)
	}
	before := plain.Calls()
	boxParts(t, plain.NewLattice(space), p)
	if plain.Calls() == before {
		t.Fatal("a scorer without the selection memo re-scored after SetC without folding")
	}
	if entries, bytes := plain.MemoSize(); entries != 0 || bytes != 0 {
		t.Fatalf("a scorer without the selection memo holds %d memo entries (%d bytes), want none", entries, bytes)
	}
	if hits, misses := plain.MemoStats(); hits != 0 || misses != 0 {
		t.Fatalf("a scorer without the selection memo counts %d hits, %d misses; want none", hits, misses)
	}
}

// TestSelectionMemoBlackBox: a black-box scorer has no selections, so
// MemoizeSelections leaves it folding every call.
func TestSelectionMemoBlackBox(t *testing.T) {
	task := paperTask(t)
	task.Agg = aggregate.Median{}
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	p := voltagePredicate(task.Table.Data())
	space := voltageSpace(t, task.Table.Data())
	s.MemoizeSelections(space)
	lat := s.NewLattice(space)
	boxParts(t, lat, p)
	before := s.Calls()
	boxParts(t, lat, p)
	if s.Calls() == before {
		t.Fatal("a black-box scorer skipped a fold")
	}
}

// TestSelectionMemoHitZeroAlloc: re-scoring a memoized box after SetC
// through a Lattice's Parts allocates nothing.
func TestSelectionMemoHitZeroAlloc(t *testing.T) {
	tbl := sensorsTable(t)
	p := voltagePredicate(tbl)
	space := voltageSpace(t, tbl)
	b := boxOf(t, space, p)
	s, err := NewScorer(paperTask(t))
	if err != nil {
		t.Fatal(err)
	}
	s.MemoizeSelections(space)
	boxParts(t, s.NewLattice(space), p)
	if err := s.SetC(0.3); err != nil {
		t.Fatal(err)
	}
	lat := s.NewLattice(space)
	var sink float64
	if n := testing.AllocsPerRun(100, func() { out, hold, _ := lat.Parts(b, true, p); sink += out + hold }); n != 0 {
		t.Errorf("Parts on a memoized box allocates %v times per call", n)
	}
	_ = sink
}

// TestScalePowTable: after SetC, scale looks n^c up in a table sized to
// the largest group (at most maxPowTable) and filled on first use, with
// the bits math.Pow gives; a group past the table computes its power, a
// new c clears the table, the same c keeps it, and c = 0 divides by 1.
// NewLayout sizes the same table, and a lattice's layout none.
func TestScalePowTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tbl := kernelTable(rng, false)
	n := tbl.NumRows()
	big := make([]int, 5000)
	for r := range big {
		big[r] = r
	}
	task := &Task{Table: tbl, Agg: aggregate.Sum{}, AggCol: 3, Lambda: 0.5, C: 0.5,
		Outliers: []Group{{Key: "o", Rows: encode(t, n, big, "dense"), Direction: TooHigh}},
		HoldOuts: []Group{{Key: "h", Rows: encode(t, n, groupShape(rng, 0, 200, 50), "sparse")}},
	}
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	if s.sizes[0] <= maxPowTable {
		t.Fatalf("the outlier group has %d rows; the test needs one past maxPowTable (%d)", s.sizes[0], maxPowTable)
	}
	ns := []int{1, 2, 3, 7, 100, 4095, maxPowTable, maxPowTable + 1, s.sizes[0]}
	check := func(c float64) {
		t.Helper()
		for _, d := range []float64{1, -2.5, 1e-300, 3e5} {
			for _, k := range ns {
				want := d / math.Pow(float64(k), c)
				if c == 0 {
					want = d
				}
				if got := s.scale(d, k); !sameBits(got, want) {
					t.Fatalf("c=%v scale(%v, %d) = %v, want %v", c, d, k, got, want)
				}
			}
		}
		if got := s.scale(7, 0); got != 0 {
			t.Fatalf("c=%v scale(7, 0) = %v, want 0", c, got)
		}
	}
	check(0.5)
	if s.pow != nil {
		t.Fatal("a scorer built the n^c table before its first SetC")
	}
	for _, c := range []float64{0.3, 1, 0.05, 0.3} {
		if err := s.SetC(c); err != nil {
			t.Fatal(err)
		}
		if len(s.pow) != maxPowTable+1 {
			t.Fatalf("the n^c table has %d entries, want maxPowTable+1", len(s.pow))
		}
		for k := range s.pow {
			if s.pow[k].Load() != 0 {
				t.Fatalf("c=%v: SetC left n=%d's power from an earlier c", c, k)
			}
		}
		check(c)
		if got := math.Float64frombits(s.pow[7].Load()); !sameBits(got, math.Pow(7, c)) {
			t.Fatalf("c=%v: the table holds %v for n=7, want %v", c, got, math.Pow(7, c))
		}
		if err := s.SetC(c); err != nil {
			t.Fatal(err)
		}
		if s.pow[7].Load() == 0 {
			t.Fatalf("c=%v: SetC to the same c cleared the table", c)
		}
	}
	if err := s.SetC(0); err != nil {
		t.Fatal(err)
	}
	check(0)

	// NewLayout sizes a table as SetC does, empty until scale fills it,
	// and keeps a table the scorer has; the layout a Lattice builds gives
	// the scorer none.
	task.C = 0.5
	fresh, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.layout(); fresh.pow != nil {
		t.Fatal("a lattice's layout built an n^c table")
	}
	fresh.NewLayout()
	if len(fresh.pow) != maxPowTable+1 {
		t.Fatalf("NewLayout's n^c table has %d entries, want maxPowTable+1", len(fresh.pow))
	}
	for k := range fresh.pow {
		if fresh.pow[k].Load() != 0 {
			t.Fatalf("NewLayout filled n=%d's power before scale asked for it", k)
		}
	}
	if got, want := fresh.scale(1, 7), 1/math.Pow(7, 0.5); !sameBits(got, want) || fresh.pow[7].Load() == 0 {
		t.Fatalf("scale(1, 7) = %v, want %v from a filled entry", got, want)
	}
	if tab := fresh.pow; fresh.NewLayout() != nil && &fresh.pow[0] != &tab[0] {
		t.Fatal("a second NewLayout replaced the scorer's n^c table")
	}
}

// TestSharePowersOutgrown: scorers at one c share the n^c table SharePowers
// hands them while it covers their largest group, with room for the groups
// to grow by a quarter, and get a longer one when a group outgrows it; a
// shared table holds math.Pow's bits whichever scorer filled an entry.
func TestSharePowersOutgrown(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tbl := kernelTable(rng, false)
	n := tbl.NumRows()
	scorer := func(size int) *Scorer {
		t.Helper()
		rows := make([]int, size)
		for r := range rows {
			rows[r] = r
		}
		s, err := NewScorer(&Task{Table: tbl, Agg: aggregate.Sum{}, AggCol: 3, Lambda: 0.5, C: 0.3,
			Outliers: []Group{{Key: "o", Rows: encode(t, n, rows, "runs"), Direction: TooHigh}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := scorer(100), scorer(125), scorer(250)
	pw := a.SharePowers(nil)
	if len(pw.tab) != 126 {
		t.Fatalf("a table for groups of 100 has %d entries, want 126", len(pw.tab))
	}
	a.scale(1, 99)
	if b.SharePowers(pw) != pw {
		t.Fatal("a group of 125 did not share a table of 126 entries")
	}
	if got := math.Float64frombits(b.pow[99].Load()); !sameBits(got, math.Pow(99, 0.3)) {
		t.Fatalf("the shared table holds %v for n=99, want %v", got, math.Pow(99, 0.3))
	}
	if longer := c.SharePowers(pw); longer == pw || len(longer.tab) != 313 {
		t.Fatalf("a group of 250 got a table of %d entries (the old one: %v), want a new one of 313", len(longer.tab), longer == pw)
	}
	for _, k := range []int{1, 99, 250} {
		if got, want := c.scale(2, k), 2/math.Pow(float64(k), 0.3); !sameBits(got, want) {
			t.Fatalf("scale(2, %d) = %v, want %v", k, got, want)
		}
	}
}
