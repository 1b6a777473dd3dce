package relation

import (
	"math/rand"
	"testing"
)

func benchSet(n int, density float64) *RowSet {
	rng := rand.New(rand.NewSource(1))
	s := NewRowSet(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			s.Add(i)
		}
	}
	return s
}

func BenchmarkRowSetAnd(b *testing.B) {
	x := benchSet(1_000_000, 0.3)
	y := benchSet(1_000_000, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Intersect(y)
	}
}

func BenchmarkRowSetForEach(b *testing.B) {
	x := benchSet(1_000_000, 0.1)
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		x.ForEach(func(r int) { sum += r })
	}
	_ = sum
}

func BenchmarkRowSetCount(b *testing.B) {
	x := benchSet(1_000_000, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Count()
	}
}

func BenchmarkBuilderAppend(b *testing.B) {
	schema := MustSchema(
		Column{Name: "d", Kind: Discrete},
		Column{Name: "v", Kind: Continuous},
	)
	row := Row{S("abc"), F(1.5)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(schema)
		for j := 0; j < 1000; j++ {
			bl.MustAppend(row)
		}
		bl.Build()
	}
}

// benchShapes builds one set per encoding regime at a representative
// density over the same universe: "dense" is high-entropy random
// membership, "runs" is group-contiguous (1000-row groups, every other
// group flagged), "sparse" is a 48-point set. The forced dense twin of
// each shape is the old fixed-bitmap baseline.
func benchShapes(n int) map[string]*RowSet {
	shapes := make(map[string]*RowSet)

	dense := NewRowSet(n)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.5 {
			dense.Add(i)
		}
	}
	shapes["dense"] = dense

	runs := NewRowSet(n)
	for g := 0; g < n/1000; g += 2 {
		runs.AddRange(g*1000, (g+1)*1000)
	}
	shapes["runs"] = runs

	sparse := NewRowSet(n)
	for i := 0; i < 48; i++ {
		sparse.Add(i * (n / 48))
	}
	shapes["sparse"] = sparse
	return shapes
}

// BenchmarkRowSetOps measures every core kernel on every encoding shape,
// against the same shape forced into the dense bitmap — the numbers behind
// the selection heuristics in rowset.go (sparseMaxLen, maxRuns).
func BenchmarkRowSetOps(b *testing.B) {
	const n = 1_000_000
	for name, s := range benchShapes(n) {
		forced := s.Clone()
		forced.toDense()
		other := NewRowSet(n) // two runs: cheap operand in any encoding
		other.AddRange(0, n/2)
		other.AddRange(n/2+1, n)
		for _, v := range []struct {
			enc string
			set *RowSet
		}{{"adaptive", s}, {"forced-dense", forced}} {
			b.Run(name+"/"+v.enc+"/And", func(b *testing.B) {
				b.ReportMetric(float64(v.set.MemBytes()), "bytes/set")
				for i := 0; i < b.N; i++ {
					_ = v.set.Intersect(other)
				}
			})
			b.Run(name+"/"+v.enc+"/Or", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = v.set.Clone().Or(other)
				}
			})
			b.Run(name+"/"+v.enc+"/Slice", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = v.set.Slice(n/4, 3*n/4)
				}
			})
			b.Run(name+"/"+v.enc+"/ForEach", func(b *testing.B) {
				sum := 0
				for i := 0; i < b.N; i++ {
					v.set.ForEach(func(r int) { sum += r })
				}
				_ = sum
			})
		}
	}
}
