package influence

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/predicate"
)

// TestSelectionMemoSurvivesSetC: with the selection memo on, a box scored
// once is re-scored at every later c without testing a row — Calls()
// advances by 0 — and with the bits a freshly built scorer at that c gets,
// through Parts and through Influence, over the three RowSet encodings, the
// removable aggregates and perturbation on and off.
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
	target := 5.0
	cs := []float64{0.5, 0, 1, 0.25, 0.5, 2}
	for _, enc := range []string{"dense", "runs", "sparse"} {
		var groups []Group
		for i, rows := range shapes {
			groups = append(groups, Group{Key: fmt.Sprint(i), Rows: encode(t, n, rows, enc), Direction: TooHigh})
		}
		for _, aggName := range []string{"sum", "count", "avg", "variance", "stddev"} {
			agg, _ := aggregate.ByName(aggName)
			for _, perturb := range []*float64{nil, &target} {
				task := func(c float64) *Task {
					return &Task{Table: tbl, Agg: agg, AggCol: 3, Outliers: groups[:2], HoldOuts: groups[2:], Lambda: 0.6, C: c, Perturb: perturb}
				}
				memo, err := NewScorer(task(cs[0]))
				if err != nil {
					t.Fatal(err)
				}
				memo.MemoizeSelections()
				for _, p := range preds {
					memo.Parts(p)
				}
				for _, c := range cs {
					if err := memo.SetC(c); err != nil {
						t.Fatal(err)
					}
					fresh, err := NewScorer(task(c))
					if err != nil {
						t.Fatal(err)
					}
					for _, p := range preds {
						before := memo.Calls()
						gotOut, gotHold := memo.Parts(p)
						gotInf := memo.Influence(p)
						if d := memo.Calls() - before; d != 0 {
							t.Fatalf("enc=%s agg=%s c=%v: a memoized box advanced Calls() by %d", enc, aggName, c, d)
						}
						wantOut, wantHold := fresh.Parts(p)
						if !sameBits(gotOut, wantOut) || !sameBits(gotHold, wantHold) {
							t.Fatalf("enc=%s agg=%s c=%v %s: memo Parts = (%v, %v), fresh (%v, %v)", enc, aggName, c, p.Key(), gotOut, gotHold, wantOut, wantHold)
						}
						if want := fresh.Influence(p); !sameBits(gotInf, want) {
							t.Fatalf("enc=%s agg=%s c=%v %s: memo Influence = %v, fresh %v", enc, aggName, c, p.Key(), gotInf, want)
						}
					}
				}
			}
		}
	}
}

// TestSelectionMemoCap: past maxMemoSelections boxes the memo stores no
// more, however many workers fill it, and a box it could not keep still
// scores right.
func TestSelectionMemoCap(t *testing.T) {
	task := paperTask(t)
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	s.MemoizeSelections()
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
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < boxes; i += 4 {
				s.Parts(box(i))
			}
		}()
	}
	wg.Wait()
	if got := s.sels.entries.Load(); got != maxMemoSelections {
		t.Fatalf("selection memo holds %d entries, want the cap %d", got, maxMemoSelections)
	}
	if entries, _ := s.MemoSize(); entries != maxMemoSelections {
		t.Fatalf("MemoSize reports %d entries, want %d", entries, maxMemoSelections)
	}
	for _, i := range []int{0, boxes / 2, boxes - 1} {
		gotOut, gotHold := s.Parts(box(i))
		wantOut, wantHold := fresh.Parts(box(i))
		if !sameBits(gotOut, wantOut) || !sameBits(gotHold, wantHold) {
			t.Fatalf("box %d at the cap: (%v, %v), want (%v, %v)", i, gotOut, gotHold, wantOut, wantHold)
		}
	}
	if got := s.sels.entries.Load(); got != maxMemoSelections {
		t.Fatalf("selection memo grew past the cap to %d entries", got)
	}
}

// TestSelectionMemoStats: MemoStats and MemoSize count the selection memo
// — a miss and an entry for a box's first fold, a hit for each re-score
// after SetC — and a scorer without the memo keeps none: after SetC its
// Influence folds again, as ResetCache's does.
func TestSelectionMemoStats(t *testing.T) {
	p := voltagePredicate(sensorsTable(t))
	s, err := NewScorer(paperTask(t))
	if err != nil {
		t.Fatal(err)
	}
	s.MemoizeSelections()
	s.Parts(p)
	if hits, misses := s.MemoStats(); hits != 0 || misses != 1 {
		t.Fatalf("after the first fold MemoStats = %d hits, %d misses; want 0, 1", hits, misses)
	}
	entries, bytes := s.MemoSize()
	if entries != 1 || bytes < int64(len(p.Key()))+3*32 {
		t.Fatalf("MemoSize = %d entries, %d bytes; want 1 entry of at least key + 3 selections", entries, bytes)
	}
	for _, c := range []float64{0.5, 0.2} {
		if err := s.SetC(c); err != nil {
			t.Fatal(err)
		}
		s.Parts(p)
	}
	if hits, misses := s.MemoStats(); hits != 2 || misses != 1 {
		t.Fatalf("after two re-scores MemoStats = %d hits, %d misses; want 2, 1", hits, misses)
	}

	plain, err := NewScorer(paperTask(t))
	if err != nil {
		t.Fatal(err)
	}
	plain.Influence(p)
	if err := plain.SetC(0.5); err != nil {
		t.Fatal(err)
	}
	before := plain.Calls()
	plain.Influence(p)
	if plain.Calls() == before {
		t.Fatal("a scorer without the selection memo re-scored after SetC without folding")
	}
	if entries, _ := plain.MemoSize(); entries != 1 {
		t.Fatalf("a scorer without the selection memo holds %d memo entries, want the one score", entries)
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
	s.MemoizeSelections()
	p := voltagePredicate(task.Table.Data())
	s.Parts(p)
	before := s.Calls()
	s.Parts(p)
	if s.Calls() == before {
		t.Fatal("a black-box scorer skipped a fold")
	}
}

// TestSelectionMemoHitZeroAlloc: re-scoring a memoized box after SetC —
// through Parts, and through Influence once its score is memoized again —
// allocates nothing.
func TestSelectionMemoHitZeroAlloc(t *testing.T) {
	p := voltagePredicate(sensorsTable(t))
	s, err := NewScorer(paperTask(t))
	if err != nil {
		t.Fatal(err)
	}
	s.MemoizeSelections()
	s.Parts(p)
	if err := s.SetC(0.3); err != nil {
		t.Fatal(err)
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() { out, hold := s.Parts(p); sink += out + hold }); n != 0 {
		t.Errorf("Parts on a memoized box allocates %v times per call", n)
	}
	s.Influence(p)
	if n := testing.AllocsPerRun(100, func() { sink += s.Influence(p) }); n != 0 {
		t.Errorf("Influence on a memoized box allocates %v times per call", n)
	}
	_ = sink
}
