package aggregate

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}

func TestComputeBasics(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	cases := []struct {
		f    Func
		want float64
	}{
		{Sum{}, 10},
		{Count{}, 4},
		{Avg{}, 2.5},
		{Variance{}, 1.25},
		{StdDev{}, math.Sqrt(1.25)},
		{Min{}, 1},
		{Max{}, 4},
		{Median{}, 2.5},
	}
	for _, c := range cases {
		if got := c.f.Compute(vals); !almostEqual(got, c.want) {
			t.Errorf("%s(%v) = %v, want %v", c.f.Name(), vals, got, c.want)
		}
	}
}

func TestComputeEmpty(t *testing.T) {
	if got := (Sum{}).Compute(nil); got != 0 {
		t.Errorf("sum(empty) = %v", got)
	}
	if got := (Count{}).Compute(nil); got != 0 {
		t.Errorf("count(empty) = %v", got)
	}
	for _, f := range []Func{Avg{}, Variance{}, StdDev{}, Min{}, Max{}, Median{}} {
		if got := f.Compute(nil); !math.IsNaN(got) {
			t.Errorf("%s(empty) = %v, want NaN", f.Name(), got)
		}
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := (Median{}).Compute([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := (Median{}).Compute([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Median must not mutate its input.
	in := []float64{3, 1, 2}
	(Median{}).Compute(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median mutated input: %v", in)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"sum", "COUNT", "Avg", "mean", "variance", "var", "stddev", "std", "min", "max", "median"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) should fail")
	}
}

func TestPaperAvgExample(t *testing.T) {
	// §3.2: g_α2 = {T4, T5, T6} with temps {35, 35, 100}; avg = 56.6̄.
	temps := []float64{35, 35, 100}
	avg := Avg{}.Compute(temps)
	if !almostEqual(avg, 170.0/3) {
		t.Fatalf("avg = %v", avg)
	}
	// Removing T6 yields avg {35,35} = 35; Δ = 56.6̄ − 35 = 21.6̄.
	st := Avg{}.State(temps)
	removed := Avg{}.Remove(st, Avg{}.State([]float64{100}))
	if got := (Avg{}).Recover(removed); !almostEqual(got, 35) {
		t.Fatalf("avg after removing T6 = %v, want 35", got)
	}
	// Removing T4 yields avg {35,100} = 67.5; Δ = 56.6̄ − 67.5 = −10.8̄.
	removed = Avg{}.Remove(st, Avg{}.State([]float64{35}))
	if got := (Avg{}).Recover(removed); !almostEqual(got, 67.5) {
		t.Fatalf("avg after removing T4 = %v, want 67.5", got)
	}
}

func TestAntiMonotonicChecks(t *testing.T) {
	if !(Sum{}).Check([]float64{0, 1, 2}) {
		t.Error("sum.check(non-negative) should be true")
	}
	if (Sum{}).Check([]float64{1, -2}) {
		t.Error("sum.check(negative) should be false")
	}
	if !(Count{}).Check([]float64{-5, 5}) {
		t.Error("count.check should always be true")
	}
	if !(Max{}).Check([]float64{-5, 5}) {
		t.Error("max.check should always be true")
	}
}

func TestEmptySafe(t *testing.T) {
	if (Sum{}).EmptyValue() != 0 || (Count{}).EmptyValue() != 0 {
		t.Error("sum/count empty values should be 0")
	}
}

func TestUDA(t *testing.T) {
	u := UDA{FuncName: "range", Fn: func(vals []float64) float64 {
		return Max{}.Compute(vals) - Min{}.Compute(vals)
	}}
	if u.Name() != "range" {
		t.Errorf("Name = %q", u.Name())
	}
	if got := u.Compute([]float64{1, 5, 3}); got != 4 {
		t.Errorf("range = %v, want 4", got)
	}
	if u.Independent() {
		t.Error("default UDA should not claim independence")
	}
	if _, ok := Func(u).(Removable); ok {
		t.Error("UDA must not satisfy Removable")
	}
}

func TestIndependenceFlags(t *testing.T) {
	independent := []Func{Sum{}, Count{}, Avg{}, Variance{}, StdDev{}}
	for _, f := range independent {
		if !f.Independent() {
			t.Errorf("%s should be independent", f.Name())
		}
	}
	dependent := []Func{Min{}, Max{}, Median{}}
	for _, f := range dependent {
		if f.Independent() {
			t.Errorf("%s should not be independent", f.Name())
		}
	}
}

// randomVals produces n random values in [-50, 50].
func randomVals(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()*100 - 50
	}
	return out
}

// Property: for every removable aggregate,
// Recover(Remove(State(D), State(S))) == Compute(D − S) for random splits.
func TestRemovableEquivalenceProperty(t *testing.T) {
	aggs := []Removable{Sum{}, Count{}, Avg{}, Variance{}, StdDev{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		d := randomVals(rng, n)
		// Choose a strict subset S of D.
		k := 1 + rng.Intn(n-1)
		s := d[:k]
		rest := d[k:]
		for _, agg := range aggs {
			got := agg.Recover(agg.Remove(agg.State(d), agg.State(s)))
			want := agg.Compute(rest)
			ok := almostEqual(got, want)
			if agg.Name() == "stddev" {
				// The sum-of-squares state cancels catastrophically when the
				// remainder's variance is near zero; sqrt amplifies that to
				// ~1e-4 absolute. Compare variances instead.
				ok = almostEqual(got*got, want*want) || math.Abs(got*got-want*want) < 1e-6
			}
			if !ok {
				t.Logf("%s: incremental %v != recompute %v (n=%d k=%d)", agg.Name(), got, want, n, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Update over a partition of D equals State(D).
func TestUpdatePartitionProperty(t *testing.T) {
	aggs := []Removable{Sum{}, Count{}, Avg{}, Variance{}, StdDev{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		d := randomVals(rng, n)
		// Random 3-way partition.
		var parts [3][]float64
		for _, v := range d {
			i := rng.Intn(3)
			parts[i] = append(parts[i], v)
		}
		for _, agg := range aggs {
			combined := agg.Update(agg.Update(agg.State(parts[0]), agg.State(parts[1])), agg.State(parts[2]))
			whole := agg.State(d)
			if !almostEqual(agg.Recover(combined), agg.Recover(whole)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: anti-monotonicity of Δ for SUM on non-negative data — removing a
// superset changes the result at least as much as removing a subset.
func TestSumDeltaAntiMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		d := make([]float64, n)
		for i := range d {
			d[i] = rng.Float64() * 100 // non-negative → check passes
		}
		if !(Sum{}).Check(d) {
			return false
		}
		total := Sum{}.Compute(d)
		// Subset s1 ⊆ s2 ⊆ d by prefix length.
		k2 := 1 + rng.Intn(n)
		k1 := 1 + rng.Intn(k2)
		delta1 := total - Sum{}.Compute(d[k1:]) // removes d[:k1]
		delta2 := total - Sum{}.Compute(d[k2:])
		return delta1 <= delta2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Variance recovery is never negative, even with adversarial
// cancellation.
func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := rng.Float64() * 1e6
		vals := make([]float64, 2+rng.Intn(20))
		for i := range vals {
			vals[i] = base + rng.Float64()*1e-3
		}
		return Variance{}.Compute(vals) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
