package relation

// FuzzRowSet is the repo's second Go-native fuzz target (next to
// sqlparse.FuzzParse). It decodes the input bytes into a universe size and
// a stream of set operations, applies each operation to THREE copies of
// the working set — one forced into each encoding before every step — and
// asserts after every operation that all three agree with a map-based
// reference model on membership, cardinality, iteration order, and the
// pure query kernels (Slice/Grow round-trip, Equal, Min/Max). Grow widens
// the universe by a tail; every set grown from keeps exactly its old rows
// through the operations that follow, and so does a second set grown from
// the same one. Any divergence between encodings, structural-invariant
// violation, or panic is a finding.
//
// Run it locally with:
//
//	go test -fuzz=FuzzRowSet -fuzztime 30s ./internal/relation

import (
	"testing"
)

// fuzzOps interprets the byte stream: each op consumes an opcode byte and
// two operand bytes (row/range positions scaled into the universe).
const (
	fuzzOpAdd = iota
	fuzzOpAddRange
	fuzzOpAnd
	fuzzOpOr
	fuzzOpGrow
	fuzzOpCount // number of opcodes
)

// fuzzModel is the reference implementation: a boolean-array set.
type fuzzModel struct {
	n  int
	in []bool
}

func (m *fuzzModel) add(r int)    { m.in[r] = true }
func (m *fuzzModel) remove(r int) { m.in[r] = false }
func (m *fuzzModel) rows() []int {
	var out []int
	for r, ok := range m.in {
		if ok {
			out = append(out, r)
		}
	}
	return out
}

func FuzzRowSet(f *testing.F) {
	// Seeds: one per opcode at small universes, plus mixed sequences that
	// force encoding transitions (sparse→runs→dense and back).
	f.Add([]byte{7, fuzzOpAdd, 1, 0, fuzzOpAdd, 3, 0, fuzzOpAddRange, 1, 5})
	f.Add([]byte{100, fuzzOpAddRange, 10, 90, fuzzOpAnd, 0, 0, fuzzOpAddRange, 0, 255})
	f.Add([]byte{200, fuzzOpAddRange, 0, 40, fuzzOpAnd, 20, 60, fuzzOpOr, 50, 55})
	f.Add([]byte{64, fuzzOpAdd, 0, 0, fuzzOpAdd, 63, 0, fuzzOpAnd, 0, 32, fuzzOpOr, 0, 0})
	f.Add([]byte{255, fuzzOpOr, 1, 3, fuzzOpOr, 5, 7, fuzzOpOr, 9, 11, fuzzOpAnd, 2, 200})
	f.Add([]byte{0})
	f.Add([]byte{0, fuzzOpAdd, 0, 0, fuzzOpOr, 0, 0})
	f.Add([]byte{100, fuzzOpAddRange, 0, 99, fuzzOpGrow, 10, 0, fuzzOpGrow, 10, 13, fuzzOpGrow, 23, 5, fuzzOpAdd, 3, 0})
	f.Add([]byte{255, fuzzOpAddRange, 0, 200, fuzzOpOr, 210, 220, fuzzOpGrow, 20, 21, fuzzOpGrow, 7, 2, fuzzOpGrow, 0, 0, fuzzOpAddRange, 250, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Universe: 0..255 rows keeps sets small enough to cross-check
		// exhaustively yet large enough to span several bitmap words.
		n := int(data[0])
		data = data[1:]
		model := &fuzzModel{n: n, in: make([]bool, n)}
		work := NewRowSet(n)
		if len(data) > 3*64 {
			data = data[:3*64] // bound per-input work
		}
		// grownFrom holds sets Grow was called on, with the rows they held.
		type frozen struct {
			s    *RowSet
			rows []int
		}
		var grownFrom []frozen
		for len(data) >= 3 {
			op, a, b := int(data[0])%fuzzOpCount, int(data[1]), int(data[2])
			data = data[3:]
			if n == 0 && op == fuzzOpAdd {
				// An empty universe has no row to add; the other ops are
				// defined on it.
				op = fuzzOpAddRange
			}
			ra, rb := 0, 0
			if n > 0 {
				ra, rb = a%n, b%n
			}
			lo, hi := ra, rb
			if lo > hi {
				lo, hi = hi, lo
			}
			// The operand set for binary ops: the range [lo,hi) plus one
			// point, built fresh each step.
			operand := func() *RowSet {
				o := NewRowSet(n)
				if n > 0 {
					o.AddRange(lo, hi)
					o.Add(ra)
				}
				return o
			}
			// The tail for Grow: k new rows, from a point on all of them,
			// every other one, or that point alone.
			k := a % 24
			tail := func() *RowSet {
				o := NewRowSet(k)
				if k == 0 {
					return o
				}
				from := b % k
				switch b / k % 3 {
				case 0:
					o.AddRange(from, k)
				case 1:
					for r := from; r < k; r += 2 {
						o.Add(r)
					}
				default:
					o.Add(from)
				}
				return o
			}
			apply := func(s *RowSet) *RowSet {
				switch op {
				case fuzzOpAdd:
					s.Add(ra)
				case fuzzOpAddRange:
					s.AddRange(lo, hi)
				case fuzzOpAnd:
					s.And(operand())
				case fuzzOpOr:
					s.Or(operand())
				case fuzzOpGrow:
					return s.Grow(tail())
				}
				return s
			}
			switch op {
			case fuzzOpAdd:
				model.add(ra)
			case fuzzOpAddRange:
				for r := lo; r < hi; r++ {
					model.add(r)
				}
			case fuzzOpAnd:
				o := operand()
				for r := 0; r < n; r++ {
					if model.in[r] && !o.Contains(r) {
						model.remove(r)
					}
				}
			case fuzzOpOr:
				operand().ForEach(func(r int) { model.add(r) })
			case fuzzOpGrow:
				old := n
				n += k
				model.n, model.in = n, append(model.in, make([]bool, k)...)
				tail().ForEach(func(r int) { model.add(old + r) })
				if len(grownFrom) < 8 {
					grownFrom = append(grownFrom, frozen{work, work.Rows()})
				}
			}
			// Apply the op to the adaptive set and to each forced encoding
			// in lockstep; all four must agree with the model.
			variants := encVariants(work)
			prev := work
			work = apply(work)
			for i, v := range variants {
				variants[i] = apply(v)
			}
			if op == fuzzOpGrow {
				// A second set grown from the same one, by all k rows, has
				// prev's rows and the tail's, whatever work took.
				sib := prev.Grow(FullRowSet(k))
				if err := sib.check(); err != nil {
					t.Fatalf("second grow: invariant: %v", err)
				}
				want := prev.Rows()
				for r := prev.Universe(); r < n; r++ {
					want = append(want, r)
				}
				if got := sib.Rows(); sib.Universe() != n || len(got) != len(want) {
					t.Fatalf("second grow: %d rows over %d, want %d over %d", len(got), sib.Universe(), len(want), n)
				}
				for i, r := range sib.Rows() {
					if r != want[i] {
						t.Fatalf("second grow: Rows[%d] = %d, want %d", i, r, want[i])
					}
				}
			}
			for _, f := range grownFrom {
				if err := f.s.check(); err != nil {
					t.Fatalf("grown-from set: invariant: %v", err)
				}
				got := f.s.Rows()
				if len(got) != len(f.rows) {
					t.Fatalf("grown-from set: %d rows, had %d", len(got), len(f.rows))
				}
				for i := range got {
					if got[i] != f.rows[i] {
						t.Fatalf("grown-from set: Rows[%d] = %d, had %d", i, got[i], f.rows[i])
					}
				}
			}
			want := model.rows()
			all := [4]*RowSet{work, variants[0], variants[1], variants[2]}
			for vi, s := range all {
				if err := s.check(); err != nil {
					t.Fatalf("variant %d: invariant: %v", vi, err)
				}
				if s.Count() != len(want) {
					t.Fatalf("variant %d (%s): Count %d, model %d", vi, s.Encoding(), s.Count(), len(want))
				}
				got := s.Rows()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("variant %d (%s): Rows[%d] = %d, model %d", vi, s.Encoding(), i, got[i], want[i])
					}
				}
				if !s.Equal(work) || !work.Equal(s) {
					t.Fatalf("variant %d (%s): != adaptive set", vi, s.Encoding())
				}
				// Pure probes.
				wantRange := 0
				for r := lo; r < hi; r++ {
					if model.in[r] {
						wantRange++
					}
				}
				if n > 0 {
					back := embedAt(s.Slice(lo, hi), lo, n)
					if back.Count() != wantRange {
						t.Fatalf("variant %d (%s): Slice/Grow count %d, want %d", vi, s.Encoding(), back.Count(), wantRange)
					}
					if !back.Intersect(s).Equal(back) {
						t.Fatalf("variant %d (%s): Slice/Grow not a subset", vi, s.Encoding())
					}
				}
				wantMin, wantMax := -1, -1
				if len(want) > 0 {
					wantMin, wantMax = want[0], want[len(want)-1]
				}
				if s.Min() != wantMin || s.Max() != wantMax {
					t.Fatalf("variant %d (%s): Min/Max %d/%d, want %d/%d", vi, s.Encoding(), s.Min(), s.Max(), wantMin, wantMax)
				}
			}
		}
	})
}
