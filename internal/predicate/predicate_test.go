package predicate

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/scorpiondb/scorpion/internal/relation"
)

// testTable builds a small mixed-kind table:
//
//	x (continuous), y (continuous), color (discrete: red, green, blue)
func testTable(t testing.TB) *relation.Table {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "y", Kind: relation.Continuous},
		relation.Column{Name: "color", Kind: relation.Discrete},
	)
	b := relation.NewBuilder(schema)
	colors := []string{"red", "green", "blue"}
	for i := 0; i < 30; i++ {
		b.MustAppend(relation.Row{
			relation.F(float64(i)),
			relation.F(float64(i % 10)),
			relation.S(colors[i%3]),
		})
	}
	return b.Build()
}

func TestRangeClauseMatch(t *testing.T) {
	tbl := testTable(t)
	p := MustNew(NewRangeClause(0, "x", 5, 10, false))
	got := p.Eval(tbl, nil).Rows()
	want := []int{5, 6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("Eval rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Eval rows = %v, want %v", got, want)
		}
	}
	// Inclusive upper bound adds row 10.
	p = MustNew(NewRangeClause(0, "x", 5, 10, true))
	if n := p.Eval(tbl, nil).Count(); n != 6 {
		t.Fatalf("inclusive Count = %d, want 6", n)
	}
}

// TestMatchAgreesOnNonFinite: Match, MatchMask and Eval are one row test,
// also where a bound or a cell is NaN or ±Inf — the box NaN <= x < 55.74
// among them, which admits no row (every comparison with NaN fails).
func TestMatchAgreesOnNonFinite(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "color", Kind: relation.Discrete},
	)
	b := relation.NewBuilder(schema)
	cells := []float64{math.NaN(), math.Inf(-1), math.Inf(1), -3, 0, 20, 55.74, 55.75, 1e300}
	colors := []string{"red", "green"}
	for i := 0; i < 150; i++ { // three windows of 64 rows, the last partial
		b.MustAppend(relation.Row{relation.F(cells[i%len(cells)]), relation.S(colors[i%2])})
	}
	tbl := b.Build()
	nan, inf := math.NaN(), math.Inf(1)
	red, _ := tbl.Dict(1).Lookup("red")
	var preds []Predicate
	for _, r := range [][2]float64{{nan, 55.74}, {0, nan}, {nan, nan}, {0, inf}, {-inf, 55.74}, {-inf, inf}, {-inf, -inf}, {inf, inf}, {55.74, 55.74}} {
		for _, hiInc := range []bool{false, true} {
			c := NewRangeClause(0, "x", r[0], r[1], hiInc)
			preds = append(preds, MustNew(c), MustNew(c, NewSetClause(1, "color", []int32{red})))
		}
	}
	for _, p := range preds {
		rows := p.Eval(tbl, nil)
		for r := 0; r < tbl.NumRows(); r++ {
			lo := r &^ 63
			mask := p.MatchMask(tbl, lo, min(64, tbl.NumRows()-lo))&(1<<uint(r-lo)) != 0
			if got := p.Match(tbl, r); got != mask || got != rows.Contains(r) {
				t.Fatalf("%v row %d (x=%v): Match %v, MatchMask %v, Eval %v", p, r, tbl.Floats(0)[r], got, mask, rows.Contains(r))
			}
		}
		if c := p.Clauses()[0]; (math.IsNaN(c.Lo) || math.IsNaN(c.Hi)) && !rows.IsEmpty() {
			t.Fatalf("%v admits %d rows under a NaN bound, want none", p, rows.Count())
		}
	}
}

func TestSetClauseMatch(t *testing.T) {
	tbl := testTable(t)
	colorCol := tbl.Schema().MustIndex("color")
	red, _ := tbl.Dict(colorCol).Lookup("red")
	p := MustNew(NewSetClause(colorCol, "color", []int32{red}))
	if n := p.Eval(tbl, nil).Count(); n != 10 {
		t.Fatalf("red count = %d, want 10", n)
	}
	// Evaluation restricted to a universe.
	universe := relation.RowSetOf(tbl.NumRows(), 0, 1, 2, 3, 4, 5)
	if n := p.Eval(tbl, universe).Count(); n != 2 { // rows 0, 3
		t.Fatalf("red count in universe = %d, want 2", n)
	}
}

func TestSetClauseDeduplicatesAndSorts(t *testing.T) {
	c := NewSetClause(0, "c", []int32{5, 1, 5, 3, 1})
	if len(c.Values) != 3 || c.Values[0] != 1 || c.Values[1] != 3 || c.Values[2] != 5 {
		t.Fatalf("Values = %v, want [1 3 5]", c.Values)
	}
}

func TestConjunction(t *testing.T) {
	tbl := testTable(t)
	colorCol := tbl.Schema().MustIndex("color")
	red, _ := tbl.Dict(colorCol).Lookup("red")
	p := MustNew(
		NewRangeClause(0, "x", 0, 15, false),
		NewSetClause(colorCol, "color", []int32{red}),
	)
	// x<15 and red: rows 0,3,6,9,12.
	if n := p.Eval(tbl, nil).Count(); n != 5 {
		t.Fatalf("conjunction count = %d, want 5", n)
	}
}

func TestNewRejectsDuplicateColumns(t *testing.T) {
	_, err := New(
		NewRangeClause(0, "x", 0, 1, false),
		NewRangeClause(0, "x", 2, 3, false),
	)
	if err == nil {
		t.Fatal("expected duplicate-column error")
	}
}

func TestTruePredicate(t *testing.T) {
	tbl := testTable(t)
	p := True()
	if !p.IsTrue() {
		t.Fatal("True() not IsTrue")
	}
	if n := p.Eval(tbl, nil).Count(); n != tbl.NumRows() {
		t.Fatalf("True matches %d rows, want %d", n, tbl.NumRows())
	}
	if p.String() != "true" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestIntersect(t *testing.T) {
	a := MustNew(NewRangeClause(0, "x", 0, 10, false))
	b := MustNew(NewRangeClause(0, "x", 5, 15, true))
	m, ok := a.Intersect(b)
	if !ok {
		t.Fatal("intersection reported empty")
	}
	c := m.Clauses()[0]
	if c.Lo != 5 || c.Hi != 10 || c.HiInc {
		t.Fatalf("intersection = %+v, want [5,10)", c)
	}

	// Disjoint ranges are empty.
	c2 := MustNew(NewRangeClause(0, "x", 20, 30, false))
	if _, ok := a.Intersect(c2); ok {
		t.Fatal("disjoint intersection reported non-empty")
	}

	// Different attributes conjoin.
	d := MustNew(NewRangeClause(1, "y", 0, 5, false))
	m, ok = a.Intersect(d)
	if !ok || m.NumClauses() != 2 {
		t.Fatalf("cross-attribute intersect = %v, %v", m, ok)
	}
}

func TestIntersectDiscrete(t *testing.T) {
	a := MustNew(NewSetClause(2, "color", []int32{0, 1}))
	b := MustNew(NewSetClause(2, "color", []int32{1, 2}))
	m, ok := a.Intersect(b)
	if !ok {
		t.Fatal("intersection reported empty")
	}
	if vs := m.Clauses()[0].Values; len(vs) != 1 || vs[0] != 1 {
		t.Fatalf("values = %v, want [1]", vs)
	}
	c := MustNew(NewSetClause(2, "color", []int32{5}))
	if _, ok := a.Intersect(c); ok {
		t.Fatal("disjoint discrete intersection reported non-empty")
	}
}

func TestMerge(t *testing.T) {
	a := MustNew(
		NewRangeClause(0, "x", 0, 10, false),
		NewRangeClause(1, "y", 2, 4, false),
	)
	b := MustNew(
		NewRangeClause(0, "x", 20, 30, true),
	)
	m := a.Merge(b)
	// y is unconstrained in b, so it must vanish from the merge.
	if m.NumClauses() != 1 {
		t.Fatalf("merge clauses = %d, want 1", m.NumClauses())
	}
	c := m.Clauses()[0]
	if c.Lo != 0 || c.Hi != 30 || !c.HiInc {
		t.Fatalf("merged range = %+v, want [0,30]", c)
	}
}

func TestMergeDiscrete(t *testing.T) {
	a := MustNew(NewSetClause(2, "color", []int32{0, 2}))
	b := MustNew(NewSetClause(2, "color", []int32{1, 2}))
	m := a.Merge(b)
	if vs := m.Clauses()[0].Values; len(vs) != 3 {
		t.Fatalf("union = %v, want 3 codes", vs)
	}
}

func TestStringAndFormat(t *testing.T) {
	tbl := testTable(t)
	colorCol := tbl.Schema().MustIndex("color")
	red, _ := tbl.Dict(colorCol).Lookup("red")
	p := MustNew(
		NewRangeClause(0, "x", 0, 10, false),
		NewSetClause(colorCol, "color", []int32{red}),
	)
	s := p.Format(tbl)
	if !strings.Contains(s, "x <") || !strings.Contains(s, "'red'") {
		t.Errorf("Format = %q", s)
	}
	if p.Key() == True().Key() {
		t.Error("distinct predicates share a Key")
	}
}

func TestSpace(t *testing.T) {
	tbl := testTable(t)
	space, err := NewSpace(tbl, []string{"x", "color"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(space.Columns()) != 2 {
		t.Fatalf("space columns = %v", space.Columns())
	}
	d, ok := space.Domain(0)
	if !ok || d.Lo != 0 || d.Hi != 29 {
		t.Errorf("x domain = %+v", d)
	}
	colorCol := tbl.Schema().MustIndex("color")
	d, ok = space.Domain(colorCol)
	if !ok || d.Card != 3 {
		t.Errorf("color domain = %+v", d)
	}
	fc := space.FullClause(0)
	if fc.Lo != 0 || fc.Hi != 29 || !fc.HiInc {
		t.Errorf("FullClause(x) = %+v", fc)
	}
	fc = space.FullClause(colorCol)
	if len(fc.Values) != 3 {
		t.Errorf("FullClause(color) = %+v", fc)
	}
	if _, err := NewSpace(tbl, []string{"missing"}, nil); err == nil {
		t.Error("expected error for unknown attribute")
	}
}

func TestAdjacent(t *testing.T) {
	tbl := testTable(t)
	space, _ := NewSpace(tbl, []string{"x", "y"}, nil)
	a := MustNew(NewRangeClause(0, "x", 0, 10, false))
	b := MustNew(NewRangeClause(0, "x", 10, 20, false))
	c := MustNew(NewRangeClause(0, "x", 25, 30, false))
	if !space.Adjacent(a, b, 1e-9) {
		t.Error("touching ranges should be adjacent")
	}
	if space.Adjacent(a, c, 1e-9) {
		t.Error("separated ranges should not be adjacent")
	}
	// Different attributes are always adjacent (each spans the other's dim).
	d := MustNew(NewRangeClause(1, "y", 0, 1, false))
	if !space.Adjacent(a, d, 1e-9) {
		t.Error("cross-attribute predicates should be adjacent")
	}
}

// randomPredicate builds a random predicate over testTable's attributes.
func randomPredicate(rng *rand.Rand) Predicate {
	var clauses []Clause
	if rng.Intn(2) == 0 {
		lo := rng.Float64() * 25
		hi := lo + rng.Float64()*10
		clauses = append(clauses, NewRangeClause(0, "x", lo, hi, rng.Intn(2) == 0))
	}
	if rng.Intn(2) == 0 {
		lo := rng.Float64() * 8
		hi := lo + rng.Float64()*3
		clauses = append(clauses, NewRangeClause(1, "y", lo, hi, rng.Intn(2) == 0))
	}
	if rng.Intn(2) == 0 {
		n := 1 + rng.Intn(3)
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(rng.Intn(3))
		}
		clauses = append(clauses, NewSetClause(2, "color", codes))
	}
	return MustNew(clauses...)
}

// Property: Merge yields a predicate matching every row either input
// matches.
func TestMergeIsUpperBoundProperty(t *testing.T) {
	tbl := testTable(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomPredicate(rng), randomPredicate(rng)
		m := a.Merge(b).Eval(tbl, nil)
		ar, br := a.Eval(tbl, nil), b.Eval(tbl, nil)
		return ar.Intersect(m).Equal(ar) && br.Intersect(m).Equal(br)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Intersect matches exactly the AND of the row sets.
func TestIntersectSemanticsProperty(t *testing.T) {
	tbl := testTable(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomPredicate(rng), randomPredicate(rng)
		m, ok := a.Intersect(b)
		want := a.Eval(tbl, nil).Intersect(b.Eval(tbl, nil))
		if !ok {
			// Syntactically empty must imply semantically empty.
			return want.IsEmpty()
		}
		return m.Eval(tbl, nil).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Key is stable across clause insertion order and distinguishes
// semantically distinct predicates built from the generator.
func TestKeyCanonicalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPredicate(rng)
		cs := p.Clauses()
		if len(cs) < 2 {
			return true
		}
		// Rebuild with reversed clause order.
		rev := make([]Clause, len(cs))
		for i := range cs {
			rev[i] = cs[len(cs)-1-i]
		}
		q := MustNew(rev...)
		return p.Key() == q.Key() && p.Equal(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Key is precomputed at construction; the accessor must be a pointer read,
// not a per-call string build. The scorer's memo lookup leans on this.
func TestKeyZeroAlloc(t *testing.T) {
	p := MustNew(
		NewRangeClause(0, "x", 1.25, 9.5, true),
		NewSetClause(2, "color", []int32{2, 0, 1}),
	)
	allocs := testing.AllocsPerRun(100, func() {
		if p.Key() == "" {
			t.Fatal("empty key")
		}
	})
	if allocs != 0 {
		t.Fatalf("Key allocated %v times per call; want 0", allocs)
	}
}

// The cached fingerprint must render exactly the historical fmt-based
// format ("col:[lo,hi,hiInc];" / "col:{v0,v1,...,};"), including %g float
// rendering and special values — persisted dedupe keys depend on it.
func TestKeyFormatMatchesLegacy(t *testing.T) {
	legacy := func(p Predicate) string {
		var b strings.Builder
		for _, c := range p.Clauses() {
			if c.Kind == relation.Continuous {
				fmt.Fprintf(&b, "%d:[%g,%g,%v];", c.Col, c.Lo, c.Hi, c.HiInc)
			} else {
				fmt.Fprintf(&b, "%d:{", c.Col)
				for _, v := range c.Values {
					fmt.Fprintf(&b, "%d,", v)
				}
				b.WriteString("};")
			}
		}
		return b.String()
	}
	cases := []Predicate{
		True(),
		MustNew(NewRangeClause(0, "x", 0, 10, false)),
		MustNew(NewRangeClause(1, "y", -0.5, math.Inf(1), true)),
		MustNew(NewRangeClause(1, "y", math.Inf(-1), 1e300, false)),
		MustNew(NewRangeClause(0, "x", 0.1, 0.30000000000000004, false)),
		MustNew(NewSetClause(2, "color", []int32{5, 3, 3, 0})),
		MustNew(
			NewRangeClause(0, "x", 1, 2, true),
			NewSetClause(2, "color", []int32{7}),
		),
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		cases = append(cases, randomPredicate(rng))
	}
	for _, p := range cases {
		if got, want := p.Key(), legacy(p); got != want {
			t.Fatalf("Key mismatch:\n got  %q\n want %q", got, want)
		}
	}
}

// Derived predicates (Intersect, Merge) must carry fresh fingerprints, not
// stale copies of their inputs'.
func TestKeyDerivedPredicates(t *testing.T) {
	a := MustNew(NewRangeClause(0, "x", 0, 10, false))
	b := MustNew(NewRangeClause(0, "x", 5, 20, false))
	m, ok := a.Intersect(b)
	if !ok {
		t.Fatal("intersect empty")
	}
	if m.Key() == a.Key() || m.Key() == b.Key() {
		t.Fatalf("intersection key %q not distinct from inputs", m.Key())
	}
	u := a.Merge(b)
	if got, want := u.Key(), MustNew(NewRangeClause(0, "x", 0, 20, false)).Key(); got != want {
		t.Fatalf("merge key %q != rebuilt %q", got, want)
	}
}
