package relation

import (
	"math/rand"
	"slices"
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
}

func TestRowSetUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for universe mismatch")
		}
	}()
	NewRowSet(10).And(NewRowSet(20))
}

func TestRowSetEqualDifferentUniverse(t *testing.T) {
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

// TestGrowSharesRuns: a runs-encoded set grown batch after batch appends
// each batch's runs into one array. A set grown from the array's last
// owner copies nothing; one grown from an older set, one whose batch
// extends its last run, and one edited in place copy first. A reader of an
// older set meanwhile sees no write (the race detector checks) and no
// changed row.
func TestGrowSharesRuns(t *testing.T) {
	base := NewRowSet(1 << 16) // room for 1,024 runs before dense
	base.AddRange(0, 100)
	base.AddRange(200, 300)
	g1 := base.Grow(RowSetOf(4, 1)) // base was never grown: a copy, with room
	if cap(g1.runs) == len(g1.runs) {
		t.Fatalf("the copy of %d runs has no spare capacity", len(g1.runs))
	}
	g2 := g1.Grow(RowSetOf(4, 3))
	if &g2.runs[0] != &g1.runs[0] {
		t.Fatal("a set grown from the array's last owner copied its runs")
	}
	if g3 := g1.Grow(RowSetOf(4, 2)); &g3.runs[0] == &g1.runs[0] {
		t.Fatal("a second set grown from g1 shares the array g2 appended to")
	}
	if g4 := g2.Grow(NewRowSet(7)); &g4.runs[0] != &g2.runs[0] {
		t.Fatal("growing by no rows copied the runs")
	}
	if g5 := g2.Grow(RowSetOf(4, 0)); &g5.runs[0] == &g2.runs[0] || g5.Count() != g2.Count()+1 || len(g5.runs) != len(g2.runs) {
		t.Fatalf("a batch extending the last run: %v over %d runs, shared %v", g5, len(g5.runs), &g5.runs[0] == &g2.runs[0])
	}
	edited := g2.Grow(NewRowSet(0))
	edited.Add(150)
	if !slices.Equal(g2.Rows(), append(base.Rows(), 1<<16+1, 1<<16+7)) {
		t.Fatalf("an in-place edit of a set sharing g2's runs changed g2: %v", g2.Rows())
	}

	// Readers of a set with spare capacity while sets grown from it append
	// past it (in place) or extend its last run (a copy).
	snap := g2
	for snap.enc == encRuns && cap(snap.runs)-len(snap.runs) < 8 {
		snap = snap.Grow(RowSetOf(4, 3)) // ends on its last row
	}
	if snap.enc != encRuns {
		t.Fatalf("snapshot %v is not runs-encoded", snap)
	}
	for _, joinEvery := range []int{1, 7} {
		want := snap.Rows()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				if got := snap.Rows(); !slices.Equal(got, want) {
					t.Errorf("the snapshot's rows changed to %d rows", len(got))
					return
				}
			}
		}()
		cur := snap
		for i := 1; i <= 200; i++ {
			tail := RowSetOf(4, 1, 3)
			if i%joinEvery == 0 {
				tail = RowSetOf(4, 0, 3) // extends cur's last run
			}
			cur = cur.Grow(tail)
			mustCheck(t, cur)
		}
		<-done
		if cur.Count() != len(want)+400 || cur.Universe() != snap.Universe()+800 {
			t.Fatalf("grown set %v, want %d rows over %d", cur, len(want)+400, snap.Universe()+800)
		}
	}
}
