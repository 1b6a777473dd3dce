package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRowSetBasics(t *testing.T) {
	s := NewRowSet(130)
	if !s.IsEmpty() || s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	for _, r := range []int{0, 64, 129} {
		if !s.Contains(r) {
			t.Errorf("Contains(%d) = false", r)
		}
	}
	if s.Contains(1) || s.Contains(-1) || s.Contains(130) {
		t.Error("Contains reports rows never added")
	}
	if got := s.Rows(); len(got) != 3 || got[0] != 0 || got[1] != 64 || got[2] != 129 {
		t.Errorf("Rows() = %v", got)
	}
}

func TestRowSetAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range Add")
		}
	}()
	NewRowSet(10).Add(10)
}

func TestFullRowSet(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		full := FullRowSet(n)
		if full.Count() != n {
			t.Fatalf("FullRowSet(%d).Count = %d", n, full.Count())
		}
		if n > 0 && (full.Min() != 0 || full.Max() != n-1) {
			t.Fatalf("FullRowSet(%d) spans [%d,%d]", n, full.Min(), full.Max())
		}
	}
}

func TestRowSetAlgebra(t *testing.T) {
	a := RowSetOf(100, 1, 2, 3, 50, 99)
	b := RowSetOf(100, 2, 3, 4, 98)
	if got := a.Intersect(b).Rows(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Clone().Or(b).Count(); got != 7 {
		t.Errorf("Or count = %d, want 7", got)
	}
	if !RowSetOf(100, 2, 3).SubsetOf(a) {
		t.Error("SubsetOf false for genuine subset")
	}
	if b.SubsetOf(a) {
		t.Error("SubsetOf true for non-subset")
	}
}

func TestRowSetUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for universe mismatch")
		}
	}()
	NewRowSet(10).And(NewRowSet(20))
}

func TestRowSetSubsetOfDifferentUniverse(t *testing.T) {
	if NewRowSet(10).SubsetOf(NewRowSet(20)) {
		t.Fatal("SubsetOf across universes should be false")
	}
	if NewRowSet(10).Equal(NewRowSet(20)) {
		t.Fatal("Equal across universes should be false")
	}
}

// randomRowSet builds a set with each row included with probability p.
func randomRowSet(rng *rand.Rand, n int, p float64) *RowSet {
	s := NewRowSet(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			s.Add(i)
		}
	}
	return s
}

// Property: |a| + |b| == |a ∪ b| + |a ∩ b| (inclusion-exclusion).
func TestRowSetInclusionExclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a := randomRowSet(r, n, 0.4)
		b := randomRowSet(r, n, 0.4)
		return a.Count()+b.Count() == a.Clone().Or(b).Count()+a.Intersect(b).Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: And distributes over Or and Or over And, whatever encoding
// each operand is in.
func TestRowSetDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(400)
		a, b, c := randomSet(r, n), randomSet(r, n), randomSet(r, n)
		for _, av := range encVariants(a) {
			for _, bv := range encVariants(b) {
				// a ∩ (b ∪ c) == (a ∩ b) ∪ (a ∩ c)
				lhs := av.Intersect(bv.Clone().Or(c))
				rhs := av.Intersect(bv).Or(av.Intersect(c))
				if !lhs.Equal(rhs) {
					return false
				}
				// a ∪ (b ∩ c) == (a ∪ b) ∩ (a ∪ c)
				lhs = av.Clone().Or(bv.Intersect(c))
				rhs = av.Clone().Or(bv).And(av.Clone().Or(c))
				if !lhs.Equal(rhs) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: absorption — a ∪ (a ∩ b) == a and a ∩ (a ∪ b) == a.
func TestRowSetAbsorptionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(400)
		a, b := randomSet(r, n), randomSet(r, n)
		for _, av := range encVariants(a) {
			for _, bv := range encVariants(b) {
				if !av.Clone().Or(av.Intersect(bv)).Equal(a) {
					return false
				}
				if !av.Intersect(bv.Clone().Or(av)).Equal(a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: ForEach visits exactly Rows() in ascending order.
func TestRowSetForEachMatchesRows(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		a := randomRowSet(r, n, 0.2)
		var visited []int
		a.ForEach(func(row int) { visited = append(visited, row) })
		rows := a.Rows()
		if len(visited) != len(rows) {
			return false
		}
		prev := -1
		for i := range rows {
			if visited[i] != rows[i] || rows[i] <= prev {
				return false
			}
			prev = rows[i]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
