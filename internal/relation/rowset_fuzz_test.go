package relation

// FuzzRowSet is the repo's second Go-native fuzz target (next to
// sqlparse.FuzzParse). It decodes the input bytes into a universe size and
// a stream of set operations, applies each operation to THREE copies of
// the working set — one forced into each encoding before every step — and
// asserts after every operation that all three agree with a map-based
// reference model on membership, cardinality, iteration order, and the
// pure query kernels (Slice/Embed round-trip, SubsetOf, Equal, Min/Max). Any divergence between encodings, structural-invariant
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
			apply := func(s *RowSet) {
				switch op {
				case fuzzOpAdd:
					s.Add(ra)
				case fuzzOpAddRange:
					s.AddRange(lo, hi)
				case fuzzOpAnd:
					s.And(operand())
				case fuzzOpOr:
					s.Or(operand())
				}
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
			}
			// Apply the op to the adaptive set and to each forced encoding
			// in lockstep; all four must agree with the model.
			variants := encVariants(work)
			apply(work)
			for _, v := range variants {
				apply(v)
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
				if !s.SubsetOf(work) || !work.SubsetOf(s) {
					t.Fatalf("variant %d (%s): SubsetOf asymmetric on equal sets", vi, s.Encoding())
				}
				// Pure probes.
				wantRange := 0
				for r := lo; r < hi; r++ {
					if model.in[r] {
						wantRange++
					}
				}
				if n > 0 {
					back := s.Slice(lo, hi).Embed(lo, n)
					if back.Count() != wantRange {
						t.Fatalf("variant %d (%s): Slice/Embed count %d, want %d", vi, s.Encoding(), back.Count(), wantRange)
					}
					if !back.SubsetOf(s) {
						t.Fatalf("variant %d (%s): Slice/Embed not a subset", vi, s.Encoding())
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
