// Package aggregate implements Scorpion's aggregate-operator framework (§5
// of the paper): plain (black-box) aggregate functions plus the three
// optional properties that unlock the efficient algorithms —
//
//   - incrementally removable (§5.1): the aggregate decomposes into
//     state/update/remove/recover so that removing a subset only requires
//     reading that subset;
//   - independent (§5.2): input tuples influence the result independently,
//     enabling the DT partitioner's greedy reasoning;
//   - anti-monotonic (§5.3): Δ of a contained predicate never exceeds Δ of
//     its container (subject to a data-dependent check), enabling MC's
//     pruning.
//
// All built-in statistical aggregates (SUM, COUNT, AVG, VARIANCE, STDDEV,
// MIN, MAX, MEDIAN) are provided, and arbitrary user-defined aggregates can
// be registered as black boxes.
package aggregate

import (
	"fmt"
	"sort"
	"strings"
)

// Func is a (possibly black-box) aggregate function over a projected
// attribute. Compute must be a pure function of its input; the framework
// may call it many times on overlapping subsets.
type Func interface {
	// Name returns the canonical lower-case name, e.g. "avg".
	Name() string
	// Compute evaluates the aggregate over vals. Implementations define
	// their own result for empty input (commonly 0 or NaN).
	Compute(vals []float64) float64
	// Independent reports the §5.2 property: whether tuples influence the
	// result independently of each other.
	Independent() bool
}

// State is the fixed-size summary of a value multiset that every
// incrementally removable aggregate shares: the sum, the sum of squares and
// the count cover SUM, COUNT, AVG, VARIANCE and STDDEV. Only VARIANCE and
// STDDEV read SumSq, so a state summarizing a selection for the others may
// leave it 0 (the influence package's folds do). It is a plain value —
// copied, not cloned, and never nil; the zero State summarizes the empty set.
// N is a float so that the Merger can scale a state by a fractional
// (estimated) tuple count.
type State struct {
	Sum, SumSq, N float64
}

// Add folds one value into the state. Folding a group's values in ascending
// row order from the zero State is how every group state in the system is
// built, so two computations over the same rows agree to the last bit; a
// fold that skips SumSq adds Sum in that same order and so agrees on Sum
// and N.
func (s *State) Add(v float64) {
	s.Sum += v
	s.SumSq += v * v
	s.N++
}

// Removable is the incrementally removable property (§5.1): F(D−S) is
// computable from state(D) and state(S) alone.
type Removable interface {
	Func
	// State summarizes a value multiset, folding vals in slice order.
	State(vals []float64) State
	// Update combines two disjoint states into the state of their union.
	Update(a, b State) State
	// Remove computes state(D−S) from state(D) and state(S), where S ⊆ D.
	Remove(d, s State) State
	// Recover recomputes the aggregate result from a state.
	Recover(s State) float64
}

// moments implements the state, update and remove functions of Removable
// once for all built-ins: with one state layout they are the same three
// functions for each of them, and only Recover differs.
type moments struct{}

// State implements Removable.
func (moments) State(vals []float64) State {
	var s State
	for _, v := range vals {
		s.Add(v)
	}
	return s
}

// Update implements Removable.
func (moments) Update(a, b State) State {
	return State{Sum: a.Sum + b.Sum, SumSq: a.SumSq + b.SumSq, N: a.N + b.N}
}

// Remove implements Removable.
func (moments) Remove(d, s State) State {
	return State{Sum: d.Sum - s.Sum, SumSq: d.SumSq - s.SumSq, N: d.N - s.N}
}

// AntiMonotonic is the §5.3 property. Check inspects the aggregate's input
// values and reports whether Δ is anti-monotonic on this data (e.g. SUM
// requires non-negative values).
type AntiMonotonic interface {
	Func
	Check(vals []float64) bool
}

// EmptySafe is implemented by aggregates with a well-defined value on empty
// input (SUM and COUNT yield 0). The Scorer uses it when a predicate removes
// an entire input group.
type EmptySafe interface {
	Func
	EmptyValue() float64
}

// ByName returns the built-in aggregate with the given (case-insensitive)
// name.
func ByName(name string) (Func, error) {
	switch strings.ToLower(name) {
	case "sum":
		return Sum{}, nil
	case "count":
		return Count{}, nil
	case "avg", "mean":
		return Avg{}, nil
	case "var", "variance":
		return Variance{}, nil
	case "stddev", "std":
		return StdDev{}, nil
	case "min":
		return Min{}, nil
	case "max":
		return Max{}, nil
	case "median":
		return Median{}, nil
	default:
		return nil, fmt.Errorf("aggregate: unknown aggregate %q", name)
	}
}

// UDA wraps an arbitrary function as a black-box user-defined aggregate.
// Black-box aggregates get no properties, so Scorpion falls back to the
// NAIVE partitioner and full recomputation (§4).
type UDA struct {
	FuncName      string
	Fn            func([]float64) float64
	IsIndependent bool
}

// Name implements Func.
func (u UDA) Name() string { return u.FuncName }

// Compute implements Func.
func (u UDA) Compute(vals []float64) float64 { return u.Fn(vals) }

// Independent implements Func.
func (u UDA) Independent() bool { return u.IsIndependent }

// sortedCopy returns vals sorted ascending without mutating the input.
func sortedCopy(vals []float64) []float64 {
	c := make([]float64, len(vals))
	copy(c, vals)
	sort.Float64s(c)
	return c
}
