package relation

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// encVariants returns three independent copies of s, one forced into each
// encoding. Forced conversions deliberately ignore the size heuristics, so
// every kernel is exercised on every representation regardless of what the
// heuristics would pick.
func encVariants(s *RowSet) [3]*RowSet {
	d, r, sp := s.Clone(), s.Clone(), s.Clone()
	d.toDense()
	r.toRuns()
	sp.toSparse()
	return [3]*RowSet{d, r, sp}
}

// mustCheck fails the test if any structural invariant is violated.
func mustCheck(t *testing.T, s *RowSet) {
	t.Helper()
	if err := s.check(); err != nil {
		t.Fatalf("invariant: %v (%s)", err, s)
	}
}

// randomSet builds a set whose shape is drawn from one of the regimes the
// encodings target: empty, a few points, contiguous runs, dense noise.
func randomSet(rng *rand.Rand, n int) *RowSet {
	s := NewRowSet(n)
	if n == 0 {
		return s
	}
	switch rng.Intn(4) {
	case 0: // empty
	case 1: // sparse points
		for i := 0; i < rng.Intn(20); i++ {
			s.Add(rng.Intn(n))
		}
	case 2: // contiguous runs
		for i := 0; i < 1+rng.Intn(5); i++ {
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			s.AddRange(lo, hi)
		}
	default: // dense noise
		p := rng.Float64()
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				s.Add(i)
			}
		}
	}
	return s
}

func TestEncodingSelection(t *testing.T) {
	// A few points stay sparse.
	s := NewRowSet(100_000)
	for i := 0; i < 10; i++ {
		s.Add(i * 997)
	}
	if s.Encoding() != "sparse" {
		t.Fatalf("10 points: %s, want sparse", s.Encoding())
	}
	// A long ascending scan over contiguous members becomes one run.
	s = NewRowSet(100_000)
	for i := 5_000; i < 95_000; i++ {
		s.Add(i)
	}
	if s.Encoding() != "runs" {
		t.Fatalf("contiguous scan: %s, want runs", s.Encoding())
	}
	if got := s.MemBytes(); got > 200 {
		t.Fatalf("one-run set costs %d bytes", got)
	}
	// High-entropy membership degrades to dense.
	s = NewRowSet(100_000)
	for i := 0; i < 100_000; i += 2 {
		s.Add(i)
	}
	if s.Encoding() != "dense" {
		t.Fatalf("alternating bits: %s, want dense", s.Encoding())
	}
	// FullRowSet is a single run, whatever the universe.
	if got := FullRowSet(1_000_000).Encoding(); got != "runs" {
		t.Fatalf("FullRowSet: %s, want runs", got)
	}
	// NewDenseRowSet stays dense under point mutation.
	d := NewDenseRowSet(1000)
	d.Add(3)
	if d.Encoding() != "dense" {
		t.Fatalf("pinned dense: %s", d.Encoding())
	}
}

func TestEncodingOutOfOrderAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 4096
	s := NewRowSet(n)
	model := make(map[int]bool)
	for i := 0; i < 3000; i++ {
		r := rng.Intn(n)
		s.Add(r)
		model[r] = true
		if err := s.check(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if s.Count() != len(model) {
		t.Fatalf("count %d != model %d", s.Count(), len(model))
	}
	for _, r := range s.Rows() {
		if !model[r] {
			t.Fatalf("extra row %d", r)
		}
	}
}

// Every binary op must agree across all nine encoding pairs and match the
// dense-reference result.
func TestCrossEncodingBinaryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := []struct {
		name string
		do   func(a, b *RowSet) *RowSet
	}{
		{"And", func(a, b *RowSet) *RowSet { return a.And(b) }},
		{"Or", func(a, b *RowSet) *RowSet { return a.Or(b) }},
	}
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(700)
		x, y := randomSet(rng, n), randomSet(rng, n)
		for _, op := range ops {
			// Dense reference.
			ref := x.Clone()
			ref.toDense()
			yd := y.Clone()
			yd.toDense()
			op.do(ref, yd)
			for _, xa := range encVariants(x) {
				for _, yb := range encVariants(y) {
					got := op.do(xa.Clone(), yb)
					mustCheck(t, got)
					if !got.Equal(ref) {
						t.Fatalf("trial %d %s: %v != ref %v", trial, op.name, got.Rows(), ref.Rows())
					}
					if !ref.Equal(got) { // Equal must be symmetric across encodings
						t.Fatalf("trial %d %s: Equal not symmetric", trial, op.name)
					}
				}
			}
		}
		// Min/Max across encodings.
		for _, xa := range encVariants(x) {
			rows := x.Rows()
			wantMin, wantMax := -1, -1
			if len(rows) > 0 {
				wantMin, wantMax = rows[0], rows[len(rows)-1]
			}
			if xa.Min() != wantMin || xa.Max() != wantMax {
				t.Fatalf("trial %d Min/Max = %d/%d, want %d/%d", trial, xa.Min(), xa.Max(), wantMin, wantMax)
			}
		}
	}
}

// In-place ops must tolerate aliasing (s.Or(s) etc.): the run iterator
// snapshots the operand before the receiver is rebuilt.
func TestBinaryOpsSelfAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		x := randomSet(rng, 300)
		for _, v := range encVariants(x) {
			or := v.Clone()
			or.Or(or)
			if !or.Equal(x) {
				t.Fatalf("s.Or(s) != s")
			}
			and := v.Clone()
			and.And(and)
			if !and.Equal(x) {
				t.Fatalf("s.And(s) != s")
			}
		}
	}
}

// embedAt maps a window-local set back to the universe [0, n), the window
// starting at off: the prefix grows by the set, then by the rows after it.
func embedAt(s *RowSet, off, n int) *RowSet {
	return NewRowSet(off).Grow(s).Grow(NewRowSet(n - off - s.Universe()))
}

// Property: Slice then Grow restores exactly the members inside the
// window, for every encoding — the round trip between a table's ids and a
// View's that the shard combiner leans on.
func TestSliceGrowRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(600)
		x := randomSet(rng, n)
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		want := NewRowSet(n)
		x.ForEach(func(r int) {
			if r >= lo && r < hi {
				want.Add(r)
			}
		})
		for _, v := range encVariants(x) {
			sl := v.Slice(lo, hi)
			if err := sl.check(); err != nil {
				t.Fatalf("slice: %v", err)
			}
			if sl.Universe() != hi-lo {
				return false
			}
			// Slice members are the window members, shifted.
			for _, r := range sl.Rows() {
				if !x.Contains(r + lo) {
					return false
				}
			}
			back := embedAt(sl, lo, n)
			if err := back.check(); err != nil {
				t.Fatalf("grow: %v", err)
			}
			if !back.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Slice(lo, hi).Count() equals the brute-force count of members
// in [lo, hi) on every encoding — the window count the shard tests take.
func TestSliceCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(600)
		x := randomSet(rng, n)
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		want := 0
		x.ForEach(func(r int) {
			if r >= lo && r < hi {
				want++
			}
		})
		for _, v := range encVariants(x) {
			if v.Slice(lo, hi).Count() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAddRange(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		s := randomSet(rng, n)
		model := make(map[int]bool)
		s.ForEach(func(r int) { model[r] = true })
		for i := 0; i < 5; i++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			s.AddRange(lo, hi)
			for r := lo; r < hi; r++ {
				model[r] = true
			}
			mustCheck(t, s)
		}
		if s.Count() != len(model) {
			t.Fatalf("count %d != model %d", s.Count(), len(model))
		}
		for _, r := range s.Rows() {
			if !model[r] {
				t.Fatalf("extra row %d", r)
			}
		}
	}
}

func TestAddRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRowSet(10).AddRange(5, 11)
}

// Group provenance RowSets are shared across scorer worker goroutines;
// every read path must be pure. Run with -race in CI.
func TestConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randomSet(rng, 2000)
	y := randomSet(rng, 2000)
	var wg sync.WaitGroup
	xs, ys := encVariants(x), encVariants(y)
	for _, v := range append(xs[:], ys[:]...) {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(s *RowSet) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					_ = s.Count()
					_ = s.Contains(i * 37 % 2000)
					_ = s.Min()
					_ = s.Max()
					_ = s.Slice(250, 1750)
					_ = s.Grow(NewRowSet(2000))
					_ = NewRowSet(100).Grow(s)
					_ = s.Intersect(y) // Clone-based; receiver unchanged
					sum := 0
					s.ForEach(func(r int) { sum += r })
				}
			}(v)
		}
	}
	wg.Wait()
}

// Clone must be deep: mutating the copy never leaks into the original.
func TestCloneIsDeepAcrossEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randomSet(rng, 400)
	for _, v := range encVariants(x) {
		before := v.Rows()
		c := v.Clone()
		c.AddRange(0, 200)
		c.Add(399)
		c.And(RowSetOf(400, 1, 399))
		got := v.Rows()
		if len(got) != len(before) {
			t.Fatalf("clone mutation leaked: %d vs %d rows", len(got), len(before))
		}
		for i := range got {
			if got[i] != before[i] {
				t.Fatalf("clone mutation leaked at %d", i)
			}
		}
	}
}

func TestMemBytesTracksEncoding(t *testing.T) {
	n := 1_000_000
	dense := NewDenseRowSet(n)
	dense.AddRange(0, n)
	run := FullRowSet(n)
	if dense.MemBytes() < n/8 {
		t.Fatalf("dense MemBytes %d < %d", dense.MemBytes(), n/8)
	}
	if run.MemBytes() >= dense.MemBytes()/100 {
		t.Fatalf("run MemBytes %d not ≪ dense %d", run.MemBytes(), dense.MemBytes())
	}
	if !run.Equal(dense) {
		t.Fatal("full sets differ")
	}
}

// TestForEachRunProperty: in every encoding, ForEachRun yields ascending,
// non-adjacent, non-empty runs whose rows are exactly the members.
func TestForEachRunProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		s := randomSet(rng, rng.Intn(700))
		want := s.Rows()
		for _, v := range encVariants(s) {
			var got []int
			prevHi := -1
			v.ForEachRun(func(lo, hi int) {
				if lo >= hi || lo <= prevHi {
					t.Fatalf("%s: run [%d,%d) after a run ending at %d", v, lo, hi, prevHi)
				}
				prevHi = hi
				for r := lo; r < hi; r++ {
					got = append(got, r)
				}
			})
			if len(got) != len(want) {
				t.Fatalf("%s: runs cover %d rows, want %d", v, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: row %d of the runs is %d, want %d", v, i, got[i], want[i])
				}
			}
		}
	}
}

// TestForEachRunFromProperty: in every encoding, ForEachRunFrom yields
// exactly ForEachRun's runs clipped to the rows at or after from — from
// before, inside, between and past the members.
func TestForEachRunFromProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 200; iter++ {
		s := randomSet(rng, rng.Intn(700))
		for _, from := range []int{0, rng.Intn(s.Universe() + 1), rng.Intn(s.Universe() + 1), s.Universe(), s.Universe() + 64} {
			var want [][2]int
			s.ForEachRun(func(lo, hi int) {
				if hi > from {
					want = append(want, [2]int{max(lo, from), hi})
				}
			})
			for _, v := range encVariants(s) {
				var got [][2]int
				v.ForEachRunFrom(from, func(lo, hi int) { got = append(got, [2]int{lo, hi}) })
				if !slices.Equal(got, want) {
					t.Fatalf("%s from %d: runs %v, want %v", v, from, got, want)
				}
			}
		}
	}
}
