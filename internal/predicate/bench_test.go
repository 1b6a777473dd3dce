package predicate

import (
	"testing"

	"github.com/scorpiondb/scorpion/internal/relation"
)

func benchTable(b *testing.B, n int) *relation.Table {
	b.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "d", Kind: relation.Discrete},
	)
	bl := relation.NewBuilder(schema)
	vals := []string{"a", "b", "c", "e", "f"}
	for i := 0; i < n; i++ {
		bl.MustAppend(relation.Row{
			relation.F(float64(i % 1000)),
			relation.S(vals[i%len(vals)]),
		})
	}
	return bl.Build()
}

func BenchmarkPredicateEvalRange(b *testing.B) {
	tbl := benchTable(b, 100_000)
	p := MustNew(NewRangeClause(0, "x", 100, 500, false))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Eval(tbl, nil)
	}
}

func BenchmarkPredicateEvalConjunction(b *testing.B) {
	tbl := benchTable(b, 100_000)
	p := MustNew(
		NewRangeClause(0, "x", 100, 500, false),
		NewSetClause(1, "d", []int32{0, 2}),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Eval(tbl, nil)
	}
}

func BenchmarkPredicateIntersect(b *testing.B) {
	p := MustNew(
		NewRangeClause(0, "x", 0, 600, false),
		NewSetClause(1, "d", []int32{0, 1, 2}),
	)
	q := MustNew(
		NewRangeClause(0, "x", 300, 900, false),
		NewSetClause(1, "d", []int32{1, 2, 3}),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.Intersect(q)
	}
}

func BenchmarkPredicateKey(b *testing.B) {
	p := MustNew(
		NewRangeClause(0, "x", 12.5, 600.25, true),
		NewSetClause(1, "d", []int32{0, 1, 2, 3}),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Key()
	}
}
