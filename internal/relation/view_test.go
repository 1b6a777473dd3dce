package relation

import (
	"fmt"
	"math/rand"
	"testing"
)

// viewTestTable builds a deterministic mixed-kind table of n rows.
func viewTestTable(t testing.TB, n int) *Table {
	t.Helper()
	schema := MustSchema(
		Column{Name: "g", Kind: Discrete},
		Column{Name: "v", Kind: Continuous},
		Column{Name: "tag", Kind: Discrete},
	)
	b := NewBuilder(schema)
	for i := 0; i < n; i++ {
		b.MustAppend(Row{
			S(fmt.Sprintf("g%d", i/7)),
			F(float64(i) * 1.5),
			S(fmt.Sprintf("t%d", i%3)),
		})
	}
	return b.Build()
}

func TestWindowIsZeroCopy(t *testing.T) {
	tbl := viewTestTable(t, 100)
	v := tbl.Window(10, 40)
	if v.Len() != 30 || v.Off() != 10 || v.Base() != tbl {
		t.Fatalf("window geometry: len=%d off=%d", v.Len(), v.Off())
	}
	// The view's column slices alias the base table's arrays.
	if &v.Floats(1)[0] != &tbl.Floats(1)[10] {
		t.Error("continuous window does not share the base array")
	}
	if &v.Codes(0)[0] != &tbl.Codes(0)[10] {
		t.Error("discrete window does not share the base array")
	}
	if v.Dict(0) != tbl.Dict(0) {
		t.Error("view does not share the base dictionary")
	}
	// Local cell reads equal the base's shifted reads.
	for l := 0; l < v.Len(); l++ {
		if v.Floats(1)[l] != tbl.Float(1, 10+l) {
			t.Fatalf("float mismatch at local %d", l)
		}
		if v.Data().Str(2, l) != tbl.Str(2, 10+l) {
			t.Fatalf("string mismatch at local %d", l)
		}
	}
}

// TestShardsPartitionExactly is the property test for Table.Shards(k):
// shards are contiguous, disjoint, covering, in row order, and their
// windows read the same cells as the base table.
func TestShardsPartitionExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300)
		tbl := viewTestTable(t, n)
		k := 1 + rng.Intn(12)
		shards := tbl.Shards(k)

		wantShards := k
		if n > 0 && k > n {
			wantShards = n
		}
		if len(shards) != wantShards {
			t.Fatalf("n=%d k=%d: got %d shards", n, k, len(shards))
		}
		next := 0
		total := 0
		for i, v := range shards {
			if v.Off() != next {
				t.Fatalf("n=%d k=%d shard %d: off=%d want %d (gap or overlap)", n, k, i, v.Off(), next)
			}
			if n > 0 && v.Len() == 0 {
				t.Fatalf("n=%d k=%d shard %d: empty shard of a non-empty table", n, k, i)
			}
			for l := 0; l < v.Len(); l++ {
				if v.Floats(1)[l] != tbl.Float(1, v.Off()+l) {
					t.Fatalf("shard %d local %d reads the wrong base row", i, l)
				}
			}
			next = v.Off() + v.Len()
			total += v.Len()
		}
		if total != n || next != n {
			t.Fatalf("n=%d k=%d: shards cover %d rows ending at %d", n, k, total, next)
		}
		// Near-equal sizes: lengths differ by at most one row.
		min, max := n, 0
		for _, v := range shards {
			if v.Len() < min {
				min = v.Len()
			}
			if v.Len() > max {
				max = v.Len()
			}
		}
		if n > 0 && max-min > 1 {
			t.Fatalf("n=%d k=%d: shard sizes range [%d,%d]", n, k, min, max)
		}
	}
}

func TestShardsAt(t *testing.T) {
	tbl := viewTestTable(t, 50)
	shards := tbl.ShardsAt([]int{7, 20, 44})
	offs := []int{0, 7, 20, 44}
	lens := []int{7, 13, 24, 6}
	if len(shards) != 4 {
		t.Fatalf("got %d shards", len(shards))
	}
	for i, v := range shards {
		if v.Off() != offs[i] || v.Len() != lens[i] {
			t.Errorf("shard %d: [%d,+%d), want [%d,+%d)", i, v.Off(), v.Len(), offs[i], lens[i])
		}
	}
	for _, bad := range [][]int{{0}, {50}, {10, 10}, {20, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ShardsAt(%v) did not panic", bad)
				}
			}()
			tbl.ShardsAt(bad)
		}()
	}
}

// TestRowSetSliceEmbedRoundTrip is the offset-translation property test:
// Slice then Embed recovers exactly the members inside the window.
func TestRowSetSliceEmbedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		s := NewRowSet(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.Add(i)
			}
		}
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)

		local := s.Slice(lo, hi)
		if local.Universe() != hi-lo {
			t.Fatalf("slice universe %d want %d", local.Universe(), hi-lo)
		}
		// Membership translates by -lo.
		for l := 0; l < hi-lo; l++ {
			if local.Contains(l) != s.Contains(lo+l) {
				t.Fatalf("n=%d [%d,%d): local %d membership mismatch", n, lo, hi, l)
			}
		}
		// Round trip: embed back and compare against s ∩ [lo, hi).
		back := local.Embed(lo, n)
		want := NewRowSet(n)
		s.ForEach(func(i int) {
			if i >= lo && i < hi {
				want.Add(i)
			}
		})
		if !back.Equal(want) {
			t.Fatalf("n=%d [%d,%d): embed(slice) != restriction", n, lo, hi)
		}
	}
}

func TestViewLocalGlobalRows(t *testing.T) {
	tbl := viewTestTable(t, 200)
	v := tbl.Window(63, 170)
	global := NewRowSet(200)
	for _, r := range []int{0, 62, 63, 64, 100, 169, 170, 199} {
		global.Add(r)
	}
	local := v.LocalRows(global)
	if local.Universe() != v.Len() {
		t.Fatalf("local universe %d", local.Universe())
	}
	wantLocal := []int{0, 1, 37, 106} // 63, 64, 100, 169 shifted by -63
	if got := local.Rows(); len(got) != len(wantLocal) {
		t.Fatalf("local rows %v, want %v", got, wantLocal)
	} else {
		for i := range got {
			if got[i] != wantLocal[i] {
				t.Fatalf("local rows %v, want %v", got, wantLocal)
			}
		}
	}
	back := v.GlobalRows(local)
	for _, r := range []int{63, 64, 100, 169} {
		if !back.Contains(r) {
			t.Errorf("GlobalRows lost row %d", r)
		}
	}
	if back.Count() != 4 {
		t.Errorf("GlobalRows count %d", back.Count())
	}
}
