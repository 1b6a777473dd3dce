package aggregate

import "math"

// Sum is the SUM aggregate: incrementally removable, independent, and
// anti-monotonic when all inputs are non-negative (§5.3).
type Sum struct{ moments }

// Name implements Func.
func (Sum) Name() string { return "sum" }

// Compute implements Func.
func (Sum) Compute(vals []float64) float64 {
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s
}

// Independent implements Func.
func (Sum) Independent() bool { return true }

// Recover implements Removable.
func (Sum) Recover(s State) float64 { return s.Sum }

// Check implements AntiMonotonic: SUM(D) bounds SUM of subsets only when no
// value is negative.
func (Sum) Check(vals []float64) bool {
	for _, v := range vals {
		if v < 0 {
			return false
		}
	}
	return true
}

// EmptyValue implements EmptySafe.
func (Sum) EmptyValue() float64 { return 0 }

// Count is the COUNT aggregate: incrementally removable, independent, and
// unconditionally anti-monotonic.
type Count struct{ moments }

// Name implements Func.
func (Count) Name() string { return "count" }

// Compute implements Func.
func (Count) Compute(vals []float64) float64 { return float64(len(vals)) }

// Independent implements Func.
func (Count) Independent() bool { return true }

// Recover implements Removable.
func (Count) Recover(s State) float64 { return s.N }

// Check implements AntiMonotonic: density is always anti-monotonic.
func (Count) Check([]float64) bool { return true }

// EmptyValue implements EmptySafe.
func (Count) EmptyValue() float64 { return 0 }

// Avg is the AVG aggregate: incrementally removable and independent
// (the paper's §5.1 worked example).
type Avg struct{ moments }

// Name implements Func.
func (Avg) Name() string { return "avg" }

// Compute implements Func. The average of no values is NaN.
func (Avg) Compute(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return Sum{}.Compute(vals) / float64(len(vals))
}

// Independent implements Func.
func (Avg) Independent() bool { return true }

// Recover implements Removable. Empty state recovers NaN.
func (Avg) Recover(s State) float64 {
	if s.N == 0 {
		return math.NaN()
	}
	return s.Sum / s.N
}

// Variance is the population VARIANCE aggregate: incrementally removable
// and independent.
type Variance struct{ moments }

// Name implements Func.
func (Variance) Name() string { return "variance" }

// Compute implements Func. Variance of fewer than one value is NaN.
func (Variance) Compute(vals []float64) float64 {
	return Variance{}.Recover(Variance{}.State(vals))
}

// Independent implements Func.
func (Variance) Independent() bool { return true }

// Recover implements Removable: E[X²] − E[X]², clamped at zero to absorb
// floating-point cancellation.
func (Variance) Recover(s State) float64 {
	n := s.N
	if n <= 0 {
		return math.NaN()
	}
	mean := s.Sum / n
	v := s.SumSq/n - mean*mean
	if v < 0 {
		v = 0
	}
	return v
}

// StdDev is the population STDDEV aggregate: incrementally removable and
// independent. It is the aggregate used by the paper's INTEL workloads.
type StdDev struct{ moments }

// Name implements Func.
func (StdDev) Name() string { return "stddev" }

// Compute implements Func.
func (StdDev) Compute(vals []float64) float64 {
	return math.Sqrt(Variance{}.Compute(vals))
}

// Independent implements Func.
func (StdDev) Independent() bool { return true }

// Recover implements Removable.
func (StdDev) Recover(s State) float64 { return math.Sqrt(Variance{}.Recover(s)) }

// Min is the MIN aggregate. It is not incrementally removable (§5.1:
// recomputing after removing the minimum requires the full dataset).
type Min struct{}

// Name implements Func.
func (Min) Name() string { return "min" }

// Compute implements Func. Min of no values is NaN.
func (Min) Compute(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Independent implements Func. MIN is dominated by a single tuple; tuple
// contributions are not independent.
func (Min) Independent() bool { return false }

// Max is the MAX aggregate: not incrementally removable, but Δ is
// unconditionally anti-monotonic (§5.3 defines MAX.check(D)=True).
type Max struct{}

// Name implements Func.
func (Max) Name() string { return "max" }

// Compute implements Func. Max of no values is NaN.
func (Max) Compute(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Independent implements Func.
func (Max) Independent() bool { return false }

// Check implements AntiMonotonic.
func (Max) Check([]float64) bool { return true }

// Median is the MEDIAN aggregate: a black-box order statistic, neither
// incrementally removable nor independent. It exercises Scorpion's NAIVE
// fallback path.
type Median struct{}

// Name implements Func.
func (Median) Name() string { return "median" }

// Compute implements Func. Median of no values is NaN; even-length inputs
// average the two middle values.
func (Median) Compute(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Independent implements Func.
func (Median) Independent() bool { return false }

// Static interface conformance checks.
var (
	_ Removable     = Sum{}
	_ Removable     = Count{}
	_ Removable     = Avg{}
	_ Removable     = Variance{}
	_ Removable     = StdDev{}
	_ AntiMonotonic = Sum{}
	_ AntiMonotonic = Count{}
	_ AntiMonotonic = Max{}
	_ EmptySafe     = Sum{}
	_ EmptySafe     = Count{}
	_ Func          = Min{}
	_ Func          = Median{}
	_ Func          = UDA{}
)
