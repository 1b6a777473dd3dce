package partition

import (
	"math"
	"testing"

	"github.com/scorpiondb/scorpion/internal/predicate"
)

func pred(lo, hi float64) predicate.Predicate {
	return predicate.MustNew(predicate.NewRangeClause(0, "x", lo, hi, false))
}

func TestSortByScore(t *testing.T) {
	cands := []Candidate{
		{Pred: pred(0, 1), Score: 1},
		{Pred: pred(1, 2), Score: 3},
		{Pred: pred(2, 3), Score: 2},
	}
	SortByScore(cands)
	if cands[0].Score != 3 || cands[1].Score != 2 || cands[2].Score != 1 {
		t.Errorf("sorted scores = %v,%v,%v", cands[0].Score, cands[1].Score, cands[2].Score)
	}
}

func TestDedupe(t *testing.T) {
	cands := []Candidate{
		{Pred: pred(0, 1), Score: 1},
		{Pred: pred(0, 1), Score: 5}, // duplicate, higher score wins
		{Pred: pred(1, 2), Score: 2},
	}
	out := Dedupe(cands)
	if len(out) != 2 {
		t.Fatalf("deduped length = %d, want 2", len(out))
	}
	if out[0].Score != 5 {
		t.Errorf("duplicate kept score %v, want 5", out[0].Score)
	}
}

func TestTop(t *testing.T) {
	if _, ok := Top(nil); ok {
		t.Error("Top(nil) should report false")
	}
	best, ok := Top([]Candidate{
		{Pred: pred(0, 1), Score: -1},
		{Pred: pred(1, 2), Score: 4},
		{Pred: pred(2, 3), Score: 2},
	})
	if !ok || best.Score != 4 {
		t.Errorf("Top = %v, %v", best, ok)
	}
}

// TestNaNRanksLast: every order of the same scores sorts to one ranking
// with the NaN last, and Dedupe keeps a duplicate's number over its NaN.
func TestNaNRanksLast(t *testing.T) {
	nan := math.NaN()
	orders := [][]float64{{nan, 1, 3, 2}, {1, nan, 3, 2}, {3, 2, 1, nan}, {2, 3, nan, 1}}
	for _, scores := range orders {
		cands := make([]Candidate, len(scores))
		for i, sc := range scores {
			cands[i] = Candidate{Pred: pred(sc, sc+1), Score: sc}
		}
		SortByScore(cands)
		if cands[0].Score != 3 || cands[1].Score != 2 || cands[2].Score != 1 || !math.IsNaN(cands[3].Score) {
			t.Errorf("order %v sorted to %v %v %v %v", scores, cands[0].Score, cands[1].Score, cands[2].Score, cands[3].Score)
		}
		if top, _ := Top(cands); top.Score != 3 {
			t.Errorf("order %v: Top = %v", scores, top.Score)
		}
	}
	for _, pair := range [][2]float64{{nan, 1}, {1, nan}} {
		out := Dedupe([]Candidate{{Pred: pred(0, 1), Score: pair[0]}, {Pred: pred(0, 1), Score: pair[1]}})
		if len(out) != 1 || out[0].Score != 1 {
			t.Errorf("Dedupe(%v) kept %v", pair, out)
		}
	}
}
