package predicate

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"github.com/scorpiondb/scorpion/internal/relation"
)

// boxSpace is a space over two continuous columns (x, y), a discrete one
// that a Box holds (d, 6 codes) and one too wide for it (w, 70 codes),
// declared out of column order.
func boxSpace(t testing.TB) *Space {
	t.Helper()
	b := relation.NewBuilder(relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "d", Kind: relation.Discrete},
		relation.Column{Name: "y", Kind: relation.Continuous},
		relation.Column{Name: "w", Kind: relation.Discrete},
	))
	for i := 0; i < 70; i++ {
		b.MustAppend(relation.Row{relation.S("g"), relation.F(float64(i % 11)), relation.S(strconv.Itoa(i % 6)),
			relation.F(float64(i%7) - 3), relation.S(strconv.Itoa(i))})
	}
	s, err := NewSpace(b.Build(), []string{"y", "w", "x", "d"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// boxFloats are the bounds a decoded clause draws from: the lattice the
// fixture's domains sit on, signed zeros, infinities and a NaN.
var boxFloats = []float64{-3, -1, 0, math.Copysign(0, -1), 0.5, 1, 2.5, 3, 5, 10, 11, math.Inf(1), math.Inf(-1), math.NaN()}

// decodePred reads one predicate from data: per column a selector byte
// (absent, range, point, or codes), then its bounds or code bytes.
func decodePred(s *Space, data []byte) (Predicate, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	var cs []Clause
	for _, name := range []string{"x", "d", "y", "w"} {
		col, _ := s.Relation().Schema().Index(name)
		sel := next()
		if sel%3 == 0 {
			continue
		}
		if s.Kind(col) == relation.Continuous {
			lo := boxFloats[next()%len(boxFloats)]
			hi := lo
			if sel%3 == 1 {
				hi = boxFloats[next()%len(boxFloats)]
			}
			if lo > hi {
				lo, hi = hi, lo
			}
			cs = append(cs, Clause{Col: col, Name: name, Kind: relation.Continuous, Lo: lo, Hi: hi, HiInc: sel&4 != 0})
			continue
		}
		d, _ := s.Domain(col)
		var codes []int32
		for n := next() % 4; n > 0; n-- {
			codes = append(codes, int32(next()%d.Card))
		}
		cs = append(cs, NewSetClause(col, name, codes))
	}
	return MustNew(cs...), data
}

// checkBoxes holds the Box operations on p and q to their Predicate
// versions: conversion fails only for what a Box cannot hold (a code past
// 63 — the fuzzed predicates have at most MaxBoxDims clauses, all in the
// space), and a converted predicate round-trips, merges and compares exactly
// as the predicate does, hashes as its equals do and reads back clause for
// clause.
func checkBoxes(t *testing.T, s *Space, p, q Predicate) {
	t.Helper()
	wide := func(p Predicate) bool {
		for _, c := range p.Clauses() {
			if c.Kind == relation.Discrete && len(c.Values) > 0 && c.Values[len(c.Values)-1] > 63 {
				return true
			}
		}
		return false
	}
	pb, pok := s.Box(p)
	qb, qok := s.Box(q)
	if pok == wide(p) || qok == wide(q) {
		t.Fatalf("Box(%v) ok=%v, Box(%v) ok=%v: want a fallback exactly for codes past 63", p, pok, q, qok)
	}
	if !pok || !qok {
		return
	}
	back := s.Predicate(pb)
	if back.Key() != p.Key() || back.Equal(p) != p.Equal(p) || back.String() != p.String() {
		t.Fatalf("round trip of %v gave %v", p, back)
	}
	if again, ok := s.Box(back); !ok || s.Predicate(again).Key() != p.Key() {
		t.Fatalf("re-boxing %v changed the box", back)
	}
	if (pb == qb) != p.Equal(q) || pb.SameColumns(qb) != slices.Equal(p.Columns(), q.Columns()) {
		t.Fatalf("%v vs %v: box == %v, SameColumns %v; predicates disagree", p, q, pb == qb, pb.SameColumns(qb))
	}
	for _, eps := range []float64{0, 1e-9, 0.5} {
		if got, want := s.AdjacentBoxes(pb, qb, eps), s.Adjacent(p, q, eps); got != want {
			t.Fatalf("AdjacentBoxes(%v, %v, %v) = %v, Adjacent %v", p, q, eps, got, want)
		}
	}
	merged := s.Predicate(pb.Merge(qb))
	if want := p.Merge(q); merged.Key() != want.Key() {
		t.Fatalf("Merge(%v, %v): box %v, predicate %v", p, q, merged, want)
	}
	var cs [MaxBoxDims]BoxClause
	n := s.Clauses(pb, &cs)
	if n != p.NumClauses() {
		t.Fatalf("Clauses(%v) gave %d clauses", p, n)
	}
	for i, c := range p.Clauses() {
		bc := cs[i]
		if bc.Col != c.Col || bc.Continuous != (c.Kind == relation.Continuous) {
			t.Fatalf("Clauses(%v)[%d] = %+v", p, i, bc)
		}
		if bc.Continuous {
			if math.Float64bits(bc.Lo) != math.Float64bits(c.Lo) || math.Float64bits(bc.Hi) != math.Float64bits(c.Hi) || bc.HiInc != c.HiInc {
				t.Fatalf("Clauses(%v)[%d] = %+v", p, i, bc)
			}
			// WithRange is the box of p with this clause's bounds replaced.
			next := slices.Clone(p.Clauses())
			next[i].Lo, next[i].HiInc = c.Lo-1, !c.HiInc
			if qc, ok := q.ClauseOn(c.Col); ok && qc.Kind == relation.Continuous {
				next[i].Lo, next[i].Hi = qc.Lo, qc.Hi
			}
			want := MustNew(next...)
			got := pb.WithRange(i, next[i].Lo, next[i].Hi, next[i].HiInc)
			// A NaN bound is never == itself, as in the round trip above.
			if wb, _ := s.Box(want); (got == wb) != want.Equal(want) || s.Predicate(got).Key() != want.Key() {
				t.Fatalf("WithRange(%d) of %v gave %v, want %v", i, p, s.Predicate(got), want)
			}
			continue
		}
		for k := 0; k < 64; k++ {
			if bc.Codes>>uint(k)&1 != 0 != c.matchCode(int32(k)) {
				t.Fatalf("Clauses(%v)[%d] codes %b", p, i, bc.Codes)
			}
		}
	}
}

func TestBoxMatchesPredicate(t *testing.T) {
	s := boxSpace(t)
	rng := rand.New(rand.NewSource(38))
	data := make([]byte, 32)
	for i := 0; i < 20000; i++ {
		rng.Read(data)
		p, rest := decodePred(s, data)
		q, _ := decodePred(s, rest)
		if i%3 == 0 {
			q = p.Merge(q) // shares bounds with p
		}
		checkBoxes(t, s, p, q)
	}
}

// TestBoxCannotHold pins the fallbacks: more clauses than a Box holds, a
// column outside the space, a clause named or kinded unlike the schema,
// and codes out of order.
func TestBoxCannotHold(t *testing.T) {
	b := relation.NewBuilder(relation.MustSchema(
		relation.Column{Name: "a", Kind: relation.Continuous},
		relation.Column{Name: "b", Kind: relation.Continuous},
		relation.Column{Name: "c", Kind: relation.Continuous},
		relation.Column{Name: "e", Kind: relation.Continuous},
		relation.Column{Name: "f", Kind: relation.Continuous},
		relation.Column{Name: "d", Kind: relation.Discrete},
	))
	b.MustAppend(relation.Row{relation.F(0), relation.F(0), relation.F(0), relation.F(0), relation.F(0), relation.S("x")})
	s, err := NewSpace(b.Build(), []string{"a", "b", "c", "e", "f", "d"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var five []Clause
	for col, name := range []string{"a", "b", "c", "e", "f"} {
		five = append(five, NewRangeClause(col, name, 0, 1, false))
	}
	notSpace, err := NewSpace(s.Relation(), []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		space *Space
		p     Predicate
	}{
		{s, MustNew(five...)},
		{notSpace, MustNew(NewRangeClause(1, "b", 0, 1, false))},
		{s, MustNew(NewRangeClause(0, "not-a", 0, 1, false))},
		{s, MustNew(Clause{Col: 5, Name: "d", Kind: relation.Continuous})},
		{s, MustNew(Clause{Col: 5, Name: "d", Kind: relation.Discrete, Values: []int32{0, 0}})},
	} {
		if _, ok := tc.space.Box(tc.p); ok {
			t.Errorf("Box(%v) ok; want a fallback", tc.p)
		}
	}
	if _, ok := s.Box(MustNew(five[:MaxBoxDims]...)); !ok {
		t.Errorf("Box of %d clauses failed", MaxBoxDims)
	}
}

func FuzzBox(f *testing.F) {
	f.Add([]byte{1, 2, 4, 1, 2, 3, 5, 5, 1, 0, 9, 2, 1, 3, 3, 7, 1, 2, 4, 1, 8, 1, 2})
	f.Add([]byte{4, 13, 0, 2, 12, 11, 5, 3, 40, 41, 42, 1, 9, 2, 4, 3, 0, 1, 2, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := boxSpace(t)
		p, rest := decodePred(s, data)
		q, _ := decodePred(s, rest)
		checkBoxes(t, s, p, q)
		checkBoxes(t, s, p, p.Merge(q))
	})
}
