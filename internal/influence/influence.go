// Package influence implements Scorpion's notion of predicate influence
// (§3.2 of the paper) and the Scorer component (§4.1).
//
// For a single outlier result o with error vector v_o and a predicate p:
//
//	Δagg(o, p)     = agg(g_o) − agg(g_o − p(g_o))
//	inf(o, p, v_o) = (Δagg(o, p) / |p(g_o)|^c) · v_o
//
// and for outlier set O, hold-out set H with trade-off λ:
//
//	inf(O, H, p, V) = λ · (1/|O|) Σ_o inf(o, p, v_o)
//	                − (1−λ) · max_h |inf(h, p)|
//
// The exponent c is the §7 knob trading result change against predicate
// selectivity (c=1 recovers the basic §3.2 definition).
//
// The Scorer offers two execution paths. For incrementally removable
// aggregates (§5.1) it caches state(g) per input group and computes updated
// results by removing the state of the matched tuples — cost proportional to
// |p(g)|. For black-box aggregates it recomputes agg(g − p(g)) — cost
// proportional to |g|.
package influence

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// Direction encodes a one-dimensional error vector (§3.1): whether the user
// judged an outlier result too high (+1) or too low (−1).
type Direction float64

const (
	// TooHigh means the outlier's value should decrease.
	TooHigh Direction = 1
	// TooLow means the outlier's value should increase.
	TooLow Direction = -1
)

// Group is one flagged query result: its provenance rows and, for outliers,
// the user's error vector.
type Group struct {
	// Key identifies the result row (its group-by key).
	Key string
	// Rows is the input group g of the result.
	Rows *relation.RowSet
	// Direction is the error vector for outliers; ignored for hold-outs.
	Direction Direction
}

// Task bundles everything the Scorer needs: the data, the aggregate, the
// flagged result groups, and the user knobs.
type Task struct {
	// Table is the relation the task's row ids index: a whole table, or a
	// relation.View for a shard-local task whose scorer must see only its
	// window's rows. Group RowSets use the relation's (local) id space.
	Table relation.Relation
	// Agg is the aggregate under explanation.
	Agg aggregate.Func
	// AggCol is the aggregate attribute column index, or -1 for count(*).
	AggCol int
	// Outliers and HoldOuts carry the flagged result groups.
	Outliers []Group
	HoldOuts []Group
	// Lambda trades outlier influence against hold-out stability (§3.2).
	Lambda float64
	// C is the §7 selectivity knob; 1 recovers the basic definition.
	C float64
}

// OutlierUnion returns g_O, the union of the outlier groups' provenance.
func (t *Task) OutlierUnion() *relation.RowSet {
	u := relation.NewRowSet(t.Table.NumRows())
	for _, g := range t.Outliers {
		u.Or(g.Rows)
	}
	return u
}

// Validate checks the task's invariants.
func (t *Task) Validate() error {
	if t.Table == nil {
		return fmt.Errorf("influence: task has no table")
	}
	if t.Agg == nil {
		return fmt.Errorf("influence: task has no aggregate")
	}
	if len(t.Outliers) == 0 {
		return fmt.Errorf("influence: task has no outlier results")
	}
	// The checks are written so that a NaN, which fails every comparison,
	// fails them: a NaN knob would turn the whole ranking into NaN silently.
	if !(t.Lambda >= 0 && t.Lambda <= 1) {
		return fmt.Errorf("influence: lambda %v outside [0,1]", t.Lambda)
	}
	if err := validC(t.C); err != nil {
		return err
	}
	if t.AggCol >= 0 && t.Table.Schema().Column(t.AggCol).Kind != relation.Continuous {
		return fmt.Errorf("influence: aggregate column must be continuous")
	}
	for _, g := range t.Outliers {
		if g.Direction != TooHigh && g.Direction != TooLow {
			return fmt.Errorf("influence: outlier %q needs an error vector of ±1", g.Key)
		}
	}
	return nil
}

// validC checks the c knob: finite and non-negative.
func validC(c float64) error {
	if !(c >= 0) || math.IsInf(c, 1) {
		return fmt.Errorf("influence: c %v must be finite and non-negative", c)
	}
	return nil
}

// Value returns the aggregate attribute of row r. For count(*) (AggCol
// < 0) every tuple contributes 1 to the aggregate, so 1 is returned —
// callers such as the algorithm chooser can then run data-dependent
// property checks (§5.3's check(D)) on real per-tuple values instead of an
// empty projection.
func (t *Task) Value(r int) float64 {
	if t.AggCol < 0 {
		return 1
	}
	return t.Table.Floats(t.AggCol)[r]
}

// Scorer evaluates predicate influence. It caches per-group aggregate state
// (for incrementally removable aggregates); it memoizes no score. A search
// that revisits boxes scores them through a Lattice, and one that scores
// each predicate once (NAIVE's grid) through a Layout.
//
// A scorer that outlives one c value (a Session's DT path) can also keep a
// selection memo (MemoizeSelections): the per-group selections of every box
// of one space its Lattices folded, which do not depend on c, so a later run
// at another c re-scores a known box without testing a row.
//
// The per-group states are immutable after construction, and the Calls
// counter and the n^c table are atomic, so the workers of a parallel search
// (NAIVE's) can share one Scorer instead of rebuilding per-group state per
// goroutine. The selection memo is not synchronized: a scorer that keeps one
// has one user at a time (a Session serializes its runs). Scoring keeps
// nothing on the Scorer but that memo and the counter: every selection state
// lives on the caller's stack, and anything larger (a Layout, a Lattice)
// belongs to the search that built it.
type Scorer struct {
	task *Task
	rem  aggregate.Removable // nil → black-box path
	// tab is task.Table.Data(): the concrete columnar window. Hot loops
	// (predicate matching, value projection) use it directly so scoring a
	// view costs the same per row as scoring a table.
	tab     *relation.Table
	aggVals []float64 // tab's aggregate column; nil for count(*)

	outOrig   []float64 // original aggregate value per outlier group
	holdOrig  []float64
	outState  []aggregate.State // cached state(g); zero on the black-box path
	holdState []aggregate.State
	// sizes is |g| per group, outliers then hold-outs: what Score needs of a
	// group it does not walk.
	sizes []int
	// mode is what every fold gathers of a selection: the values left
	// behind for a black-box aggregate, and for a removable one the sums,
	// with squares only when the aggregate reads them.
	mode foldMode

	calls atomic.Int64 // number of (group × predicate) delta evaluations
	// sels is the selection memo; nil unless MemoizeSelections turned it on.
	sels *selectionMemo
	// pow[n] holds the Float64bits of n^c for the current c, 0 until scale
	// first needs it; SetC and NewLayout size it, and SetC clears it. A c
	// sweep's warm run and a grid search would spend most of their time in
	// math.Pow. A looked-up power has the bits of a computed one, and
	// workers that race to compute one store the same bits. SharePowers
	// hands a seeded scorer its pool's table.
	pow []atomic.Uint64
	// win is Extend's window from its last non-zero row.
	win *window
}

// maxMemoSelections caps the selection memo's entries: past it a box is
// folded without being stored. A DT session's generation meets a few
// hundred distinct boxes; the cap only bounds a pathological sweep.
const maxMemoSelections = 4096

// selectionMemo maps a Box of space to the selections Select folds for the
// predicate it holds, for at most maxMemoSelections boxes, and counts its
// lookups.
type selectionMemo struct {
	space        *predicate.Space
	m            map[predicate.Box][]Selection
	hits, misses int64
}

func (c *selectionMemo) get(b predicate.Box) ([]Selection, bool) {
	sels, ok := c.m[b]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return sels, ok
}

// put stores sels under b unless the memo is full.
func (c *selectionMemo) put(b predicate.Box, sels []Selection) {
	if len(c.m) < maxMemoSelections {
		c.m[b] = sels
	}
}

// NewScorer builds a scorer, validating the task and choosing the
// incremental path when the aggregate supports it.
func NewScorer(task *Task) (*Scorer, error) {
	s, err := newScorer(task)
	if err != nil {
		return nil, err
	}
	s.setRemovable()
	init := func(groups []Group) ([]float64, []aggregate.State) {
		orig := make([]float64, len(groups))
		states := make([]aggregate.State, len(groups))
		for i, g := range groups {
			if s.rem != nil {
				states[i] = GroupState(s.tab, task.AggCol, g.Rows)
				orig[i] = s.rem.Recover(states[i])
			} else {
				orig[i] = task.Agg.Compute(s.groupValues(g.Rows))
			}
		}
		return orig, states
	}
	s.outOrig, s.outState = init(task.Outliers)
	s.holdOrig, s.holdState = init(task.HoldOuts)
	s.sizeGroups()
	return s, nil
}

// NewScorerSeeded builds a scorer whose per-group aggregate states are
// PROVIDED rather than computed — the streaming warm-start path (§5.1 meets
// live data): a stream tracker that maintained state(g) incrementally
// across append batches hands the states over, and the scorer skips the
// O(|D|) per-group projection pass entirely. Original aggregate values are
// recovered from the states.
//
// The task's aggregate must be incrementally removable, and outStates /
// holdStates must align 1:1 with task.Outliers / task.HoldOuts. States are
// values, so the caller may keep advancing its own afterwards.
func NewScorerSeeded(task *Task, outStates, holdStates []aggregate.State) (*Scorer, error) {
	s, err := newScorer(task)
	if err != nil {
		return nil, err
	}
	rem, ok := task.Agg.(aggregate.Removable)
	if !ok {
		return nil, fmt.Errorf("influence: seeded scorer requires an incrementally removable aggregate; %q is not", task.Agg.Name())
	}
	if len(outStates) != len(task.Outliers) || len(holdStates) != len(task.HoldOuts) {
		return nil, fmt.Errorf("influence: seeded states mismatch groups: %d/%d outliers, %d/%d hold-outs",
			len(outStates), len(task.Outliers), len(holdStates), len(task.HoldOuts))
	}
	s.setRemovable()
	adopt := func(states []aggregate.State) ([]float64, []aggregate.State) {
		orig := make([]float64, len(states))
		for i, st := range states {
			orig[i] = rem.Recover(st)
		}
		return orig, append([]aggregate.State(nil), states...)
	}
	s.outOrig, s.outState = adopt(outStates)
	s.holdOrig, s.holdState = adopt(holdStates)
	s.sizeGroups()
	return s, nil
}

// setRemovable chooses the incremental path when the task's aggregate is
// removable, and the fold mode: of the built-ins only VARIANCE and STDDEV
// read State.SumSq, and an aggregate this does not know keeps it.
func (s *Scorer) setRemovable() {
	s.rem, _ = s.task.Agg.(aggregate.Removable)
	switch s.rem.(type) {
	case nil:
		s.mode = foldRest
	case aggregate.Sum, aggregate.Count, aggregate.Avg:
		s.mode = foldSums
	default:
		s.mode = foldMoments
	}
}

// sizeGroups records |g| for every group, outliers then hold-outs.
func (s *Scorer) sizeGroups() {
	s.sizes = make([]int, 0, len(s.task.Outliers)+len(s.task.HoldOuts))
	for _, groups := range [][]Group{s.task.Outliers, s.task.HoldOuts} {
		for _, g := range groups {
			s.sizes = append(s.sizes, g.Rows.Count())
		}
	}
}

// newScorer validates the task and binds the scorer to its columns.
func newScorer(task *Task) (*Scorer, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	s := &Scorer{task: task, tab: task.Table.Data()}
	if task.AggCol >= 0 {
		s.aggVals = s.tab.Floats(task.AggCol)
	}
	return s, nil
}

// GroupState folds the aggregate attribute of a group's rows, in ascending
// row order from the zero State, into state(g) — the one way group states
// are built, by the scorer and by whoever seeds one (the stream tracker).
// rel is the relation the row ids index; aggCol < 0 is count(*), where
// every tuple contributes 1 and all three moments equal the count.
func GroupState(rel relation.Relation, aggCol int, rows *relation.RowSet) aggregate.State {
	if aggCol < 0 {
		n := float64(rows.Count())
		return aggregate.State{Sum: n, SumSq: n, N: n}
	}
	var st aggregate.State
	col := rel.Floats(aggCol)
	rows.ForEachRun(func(lo, hi int) {
		for _, v := range col[lo:hi] {
			st.Add(v)
		}
	})
	return st
}

// groupValues projects the aggregate attribute over a group in ascending
// row order.
func (s *Scorer) groupValues(rows *relation.RowSet) []float64 {
	out := make([]float64, 0, rows.Count())
	rows.ForEachRun(func(lo, hi int) {
		if s.aggVals != nil {
			out = append(out, s.aggVals[lo:hi]...)
			return
		}
		for ; lo < hi; lo++ {
			out = append(out, 1)
		}
	})
	return out
}

// Task returns the scorer's task.
func (s *Scorer) Task() *Task { return s.task }

// Incremental reports whether the scorer runs the §5.1 incremental path.
func (s *Scorer) Incremental() bool { return s.rem != nil }

// Calls reports how many Δ evaluations have run — (group × predicate)
// scorings plus the single-tuple evaluations the DT partitioner uses to
// label tuples. It is the Scorer cost metric used by the Merger
// optimization experiments and by the serving layer to demonstrate
// §8.3.3 partition reuse (a reused partitioning skips all re-labeling).
func (s *Scorer) Calls() int64 { return s.calls.Load() }

// MemoStats reports the selection memo's hits and misses (0, 0 when the
// scorer keeps none). The hit rate (hits / (hits+misses)) is the
// serving-layer signal for how many of a c sweep's re-scores tested no row.
func (s *Scorer) MemoStats() (hits, misses int64) {
	if s.sels == nil {
		return 0, 0
	}
	return s.sels.hits, s.sels.misses
}

// MemoSize reports the number of memoized selection lists and an estimate of
// their heap footprint in bytes: per entry its Box, a map slot's overhead and
// one Selection per group. The BENCH_memory lane tracks it next to
// provenance bytes/row.
func (s *Scorer) MemoSize() (entries int, bytes int64) {
	if s.sels == nil {
		return 0, 0
	}
	// Rough per-entry cost of a map slot: a word-sized value + amortized
	// bucket/overflow overhead.
	const entryOverhead = 32
	perEntry := int64(unsafe.Sizeof(predicate.Box{})) + entryOverhead + int64(len(s.sizes))*int64(unsafe.Sizeof(Selection{}))
	return len(s.sels.m), int64(len(s.sels.m)) * perEntry
}

// MemoizeSelections turns on the selection memo for the boxes of space:
// from then on a Lattice over space keeps each box it folds — its
// per-group selections under the Box — and a box met again, at any c since
// SetC keeps them, is scored from them without testing a row. It is for a
// scorer that outlives one c (a Session's DT path); the memo lives as long
// as the scorer and holds at most maxMemoSelections boxes. A black-box
// scorer has no selections to keep, so the call is a no-op there, as it is
// when the memo is already on. Call it before scoring, not concurrently
// with it.
func (s *Scorer) MemoizeSelections(space *predicate.Space) {
	if s.rem == nil || s.sels != nil {
		return
	}
	s.sels = &selectionMemo{space: space, m: make(map[predicate.Box][]Selection)}
}

// OutlierResult returns the cached original aggregate value of outlier i.
func (s *Scorer) OutlierResult(i int) float64 { return s.outOrig[i] }

// HoldOutResult returns the cached original aggregate value of hold-out i.
func (s *Scorer) HoldOutResult(i int) float64 { return s.holdOrig[i] }

// value returns the aggregate attribute of local row r (1 for count(*)) —
// the hot-path sibling of Task.Value, reading the slice cached at
// construction instead of going through the Relation interface per row.
func (s *Scorer) value(r int) float64 {
	if s.aggVals == nil {
		return 1
	}
	return s.aggVals[r]
}

// Selection is what the incremental path gathers about p(g) for one group
// before finish turns it into Δagg: the number of matched tuples and
// state(p(g)), folded in ascending row order. Its SumSq is folded only for
// an aggregate that reads it (see foldMode), and stays 0 otherwise, on
// every path alike. It is a 32-byte value. For an
// append-only group it stays valid as the group grows: folding the new rows'
// matches onto it gives the bits a fold of the whole group gives, because
// every old row precedes every new one (see Select, Extend and Score).
type Selection struct {
	matched int
	sel     aggregate.State
}

// Matched reports |p(g)|.
func (x Selection) Matched() int { return x.matched }

// selection is one group's scoring loop state; it lives on the caller's
// stack.
type selection struct {
	Selection
	// rest holds the values of g − p(g) in ascending row order (black-box
	// path).
	rest []float64
}

// foldMode is what a fold gathers of a group's selection.
type foldMode uint8

const (
	// foldRest keeps the values of g − p(g), for a black-box aggregate.
	foldRest foldMode = iota
	// foldSums folds state(p(g))'s Sum and N, for SUM, COUNT and AVG.
	foldSums
	// foldMoments folds all of state(p(g)), SumSq too, for the aggregates
	// that read it (VARIANCE, STDDEV).
	foldMoments
)

// take folds one window of a value column into the selection: vals[base+i]
// is matched when bit i of m is set, and the window is n <= 64 values wide.
// A nil vals is count(*)'s column of ones. Windows must arrive in ascending
// order: the fold order is the summation order, and every path that scores
// the same rows must add them up the same way. Sum is added value by value
// in that order whatever the mode, and N counts exactly, so a selection
// folded without squares has the Sum and N of one folded with them.
func (x *selection) take(vals []float64, base, n int, m uint64, mode foldMode) {
	k := bits.OnesCount64(m)
	x.matched += k
	switch {
	case mode == foldRest:
	case vals == nil:
		// Ones sum to their count exactly, in any order.
		c := float64(k)
		x.sel.Sum, x.sel.N = x.sel.Sum+c, x.sel.N+c
		if mode == foldMoments {
			x.sel.SumSq += c
		}
		return
	case mode == foldSums:
		// A local sum stays in a register; x.sel.Sum would be stored and
		// reloaded for every value.
		sum := x.sel.Sum
		for ; m != 0; m &= m - 1 {
			sum += vals[base+bits.TrailingZeros64(m)]
		}
		x.sel.Sum, x.sel.N = sum, x.sel.N+float64(k)
		return
	default:
		for ; m != 0; m &= m - 1 {
			x.sel.Add(vals[base+bits.TrailingZeros64(m)])
		}
		return
	}
	if k == n {
		return
	}
	for m = ^m & (^uint64(0) >> uint(64-n)); m != 0; m &= m - 1 {
		v := 1.0
		if vals != nil {
			v = vals[base+bits.TrailingZeros64(m)]
		}
		x.rest = append(x.rest, v)
	}
}

// takeMask folds a group of n tuples into the selection from its position
// bitset: bit i of mask (⌈n/64⌉ words) is the group's i-th row, whose value
// is vals[i] (nil vals: count(*)'s ones). It is take over each word, lowest
// first, so the fold is in ascending row order.
func (x *selection) takeMask(vals []float64, n int, mask []uint64, mode foldMode) {
	if mode == foldRest {
		x.rest = make([]float64, 0, n)
	}
	for w, m := range mask {
		if m != 0 || mode == foldRest {
			x.take(vals, w<<6, min(64, n-w<<6), m, mode)
		}
	}
}

// finish computes Δagg for one group of total tuples from its selection.
func (s *Scorer) finish(orig float64, state aggregate.State, x *selection, total int) float64 {
	if x.matched == 0 {
		return 0
	}
	t := s.task
	var updated float64
	switch {
	case x.matched == total:
		// The predicate deletes the whole input group: the output would
		// disappear rather than move. For aggregates with a defined empty
		// value (SUM, COUNT → 0) use it; otherwise treat as non-influential.
		if es, ok := t.Agg.(aggregate.EmptySafe); ok {
			return orig - es.EmptyValue()
		}
		return 0
	case s.rem != nil:
		updated = s.rem.Recover(s.rem.Remove(state, x.sel))
	default:
		updated = t.Agg.Compute(x.rest)
	}
	return finite(orig - updated)
}

// finite maps an undefined Δ (NaN, ±Inf) to "no influence".
func finite(d float64) float64 {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return 0
	}
	return d
}

// fold is one group's scoring loop: over the group's maximal row runs from
// row from on, 64 rows at a time, it tests the clauses on the column slices
// and folds the matched values into x in ascending row order. It returns
// the number of rows it tested. On the incremental path nothing is
// allocated; the black-box path needs from = 0.
func (s *Scorer) fold(g Group, p predicate.Predicate, from int, x *selection) int {
	s.calls.Add(1)
	if s.mode == foldRest {
		x.rest = make([]float64, 0, g.Rows.Count())
	}
	tested := 0
	g.Rows.ForEachRunFrom(from, func(lo, hi int) {
		tested += hi - lo
		for ; lo < hi; lo += 64 {
			n := min(64, hi-lo)
			x.take(s.aggVals, lo, n, p.MatchMask(s.tab, lo, n), s.mode)
		}
	})
	return tested
}

// delta computes Δagg(group, p) and the number of matched tuples.
func (s *Scorer) delta(g Group, orig float64, state aggregate.State, p predicate.Predicate) (float64, int) {
	var x selection
	total := s.fold(g, p, 0, &x)
	return s.finish(orig, state, &x, total), x.matched
}

// scale applies the c-knob denominator: Δ / n^c with n = |p(g)| ≥ 1.
func (s *Scorer) scale(delta float64, n int) float64 {
	if n == 0 {
		return 0
	}
	if s.task.C == 0 {
		return delta
	}
	if n >= len(s.pow) {
		return delta / math.Pow(float64(n), s.task.C)
	}
	p := s.pow[n].Load()
	if p == 0 { // n ≥ 1, so n^c ≥ 1 is never +0
		p = math.Float64bits(math.Pow(float64(n), s.task.C))
		s.pow[n].Store(p)
	}
	return delta / math.Float64frombits(p)
}

// OutlierInfluence computes inf(o_i, p, v_i) for outlier index i.
func (s *Scorer) OutlierInfluence(i int, p predicate.Predicate) float64 {
	g := s.task.Outliers[i]
	d, n := s.delta(g, s.outOrig[i], s.outState[i], p)
	return s.scale(d, n) * float64(g.Direction)
}

// HoldOutInfluence computes inf(h_i, p) (no error vector) for hold-out i.
func (s *Scorer) HoldOutInfluence(i int, p predicate.Predicate) float64 {
	d, n := s.delta(s.task.HoldOuts[i], s.holdOrig[i], s.holdState[i], p)
	return s.scale(d, n)
}

// Score is a predicate's objective beside its parts, as the Scorer's
// objective combines them: every served candidate takes its score, penalty
// and match count from one (partition.Candidate.SetScore).
type Score struct {
	// Value is the objective inf(O, H, p, V): λ·OutMean − (1−λ)·HoldPen.
	Value float64
	// OutMean is the mean outlier influence, before the λ weighting.
	OutMean float64
	// HoldPen is the hold-out penalty max_h |inf(h, p)| (0 without
	// hold-outs), before the λ weighting.
	HoldPen float64
	// Matched is |p(g_O)|, the number of outlier tuples p matches: the sum
	// of the outlier groups' Selection.Matched, which GROUP BY keeps
	// disjoint. The exact re-score reads it so that ranking needs no second
	// pass over g_O.
	Matched int
}

// Influence computes the full objective inf(O, H, p, V), PartsMatched's
// Value. It folds p over every group on each call.
func (s *Scorer) Influence(p predicate.Predicate) float64 {
	return s.PartsMatched(p).Value
}

// Parts returns the two components of the objective, PartsMatched's
// OutMean and HoldPen.
func (s *Scorer) Parts(p predicate.Predicate) (outMean, holdPenalty float64) {
	sc := s.PartsMatched(p)
	return sc.OutMean, sc.HoldPen
}

// PartsMatched scores p. It folds each whole group into a selection and
// scores the selections: ScoreMatched(Select(p, nil)) has its bits.
func (s *Scorer) PartsMatched(p predicate.Predicate) Score {
	nOut := len(s.task.Outliers)
	v, outMean, holdPen, matched, _, _ := s.objective(func(gi int) (float64, int) {
		var x selection
		total := s.fold(s.group(gi, nOut), p, 0, &x)
		return s.term(gi, &x, total), x.matched
	}, math.Inf(-1), false)
	return Score{v, outMean, holdPen, matched}
}

// Select folds p over every group of the task from its first row — the
// outliers, then the hold-outs — into dst (grown as needed), one Selection
// per group, and returns it. ScoreMatched(Select(p, nil)) is
// PartsMatched(p). It needs the incremental path: a black-box aggregate has
// no state to keep.
func (s *Scorer) Select(p predicate.Predicate, dst []Selection) []Selection {
	s.mustIncremental()
	dst = slices.Grow(dst[:0], len(s.sizes))[:len(s.sizes)]
	clear(dst)
	s.Extend(p, 0, dst)
	return dst
}

// Extend folds p's matches among the rows at or after from of every group
// onto sels, one Selection per group as Select lays them out, and returns
// the number of rows it tested. Each selection must hold p's fold of its
// group's rows before from: a group that only grew by rows at or after from
// then holds exactly what Select would fold for it. From a row past 0 it
// tests each row of [from, n) once: p's match mask of each 64-row word, cut
// by each group's bits of the word (the scorer's window, built on the first
// call from that row, after which it allocates nothing). It is not safe
// for concurrent use.
func (s *Scorer) Extend(p predicate.Predicate, from int, sels []Selection) int {
	s.mustIncremental()
	if from == 0 {
		tested := 0
		nOut := len(s.task.Outliers)
		for gi := range sels {
			x := selection{Selection: sels[gi]}
			tested += s.fold(s.group(gi, nOut), p, 0, &x)
			sels[gi] = x.Selection
		}
		return tested
	}
	w := s.window(from)
	n := s.tab.NumRows()
	for i := range w.masks {
		lo := from + 64*i
		w.masks[i] = p.MatchMask(s.tab, lo, min(64, n-lo))
	}
	s.calls.Add(int64(len(sels)))
	for gi := range sels {
		x := selection{Selection: sels[gi]}
		for i, b := range w.bits[gi*len(w.masks) : (gi+1)*len(w.masks)] {
			if m := w.masks[i] & b; m != 0 {
				x.take(s.aggVals, from+64*i, 64, m, s.mode)
			}
		}
		sels[gi] = x.Selection
	}
	return w.rows
}

// window is Extend's view of the rows at or after from: per 64-row word of
// [from, n), each group's rows in it (bits, group-major, outliers then
// hold-outs) and the last predicate's mask.
type window struct {
	from        int
	bits, masks []uint64
	rows        int // the groups' rows in the window
}

// window returns the scorer's window from row from, building it when the
// last one started elsewhere.
func (s *Scorer) window(from int) *window {
	if s.win != nil && s.win.from == from {
		return s.win
	}
	words := (s.tab.NumRows() - from + 63) / 64
	w := &window{from: from, bits: make([]uint64, len(s.sizes)*words), masks: make([]uint64, words)}
	nOut := len(s.task.Outliers)
	for gi := range s.sizes {
		bits := w.bits[gi*words : (gi+1)*words]
		s.group(gi, nOut).Rows.ForEachRunFrom(from, func(lo, hi int) {
			w.rows += hi - lo
			for r := lo - from; r < hi-from; r++ {
				bits[r>>6] |= 1 << (r & 63)
			}
		})
	}
	s.win = w
	return w
}

// ScoreMatched scores one selection per group, laid out as Select lays
// them out, as PartsMatched scores a predicate.
func (s *Scorer) ScoreMatched(sels []Selection) Score {
	v, outMean, holdPen, matched, _, _ := s.objective(func(gi int) (float64, int) {
		x := selection{Selection: sels[gi]}
		return s.term(gi, &x, s.sizes[gi]), x.matched
	}, math.Inf(-1), false)
	return Score{v, outMean, holdPen, matched}
}

// combine is the objective from its two components: λ·outMean −
// (1−λ)·holdPenalty.
func (s *Scorer) combine(outMean, holdPenalty float64) float64 {
	return s.task.Lambda*outMean - (1-s.task.Lambda)*holdPenalty
}

// objective is the one combination rule of every scoring path: gather
// folds group gi, outliers first, and returns its term (term of its
// selection) and matched count. It folds every outlier, then the hold-outs
// in order, and before each hold-out stops once the score so far declines
// against floor. The penalty is never negative and only grows, and IEEE
// subtraction is monotone, so a score so far bounds the whole from above;
// an undeclined score (ok) has the whole's bits. Strict, only a score above
// floor passes (NaN passes nothing, nothing passes a NaN floor); else only
// one below it declines (NaN never does), so −Inf declines nothing. folded
// counts the groups folded; matched sums the outliers' matches. It counts
// no call. A gather keeps its selection on its own stack: one handed to a
// func value by pointer would move to the heap, and one returned by value
// costs a copy per group.
func (s *Scorer) objective(gather func(gi int) (term float64, matched int), floor float64, strict bool) (score, outMean, holdPen float64, matched, folded int, ok bool) {
	nOut := len(s.task.Outliers)
	for gi := range nOut {
		t, m := gather(gi)
		matched += m
		outMean += t
	}
	outMean /= float64(nOut)
	for folded = nOut; ; folded++ {
		score = s.combine(outMean, holdPen)
		if strict {
			ok = score > floor
		} else {
			ok = !(score < floor)
		}
		if !ok || folded == len(s.sizes) {
			return score, outMean, holdPen, matched, folded, ok
		}
		if h, _ := gather(folded); h > holdPen {
			holdPen = h
		}
	}
}

// term is group gi's summand of the objective, counting the outliers first,
// from its selection x of its total tuples: inf(o, p, v_o) for an outlier,
// and for a hold-out |inf(h, p)|, which the penalty takes the largest of.
func (s *Scorer) term(gi int, x *selection, total int) float64 {
	if nOut := len(s.task.Outliers); gi >= nOut {
		gi -= nOut
		return math.Abs(s.scale(s.finish(s.holdOrig[gi], s.holdState[gi], x, total), x.matched))
	}
	return s.scale(s.finish(s.outOrig[gi], s.outState[gi], x, total), x.matched) * float64(s.task.Outliers[gi].Direction)
}

// group returns group gi, counting the outliers first and then the
// hold-outs; nOut is the number of outliers.
func (s *Scorer) group(gi, nOut int) Group {
	if gi < nOut {
		return s.task.Outliers[gi]
	}
	return s.task.HoldOuts[gi-nOut]
}

func (s *Scorer) mustIncremental() {
	if s.rem == nil {
		panic(fmt.Sprintf("influence: selections need an incrementally removable aggregate; %q is not", s.task.Agg.Name()))
	}
}

// TupleOutlierInfluence computes the influence of the single tuple at row r
// within outlier group i: Δagg(o, {t}) · v_o. Used by the DT partitioner to
// label tuples. Cost is O(1) on the incremental path.
func (s *Scorer) TupleOutlierInfluence(i, r int) float64 {
	return s.tupleInfluence(s.task.Outliers[i], s.outOrig[i], s.outState[i], r) *
		float64(s.task.Outliers[i].Direction)
}

// TupleHoldOutInfluence computes Δagg(h, {t}) for row r of hold-out group i.
func (s *Scorer) TupleHoldOutInfluence(i, r int) float64 {
	return s.tupleInfluence(s.task.HoldOuts[i], s.holdOrig[i], s.holdState[i], r)
}

func (s *Scorer) tupleInfluence(g Group, orig float64, state aggregate.State, r int) float64 {
	s.calls.Add(1)
	if s.rem != nil {
		var one aggregate.State
		one.Add(s.value(r))
		return finite(orig - s.rem.Recover(s.rem.Remove(state, one)))
	}
	// Black-box: rebuild the group without row r.
	rest := make([]float64, 0, g.Rows.Count())
	g.Rows.ForEachRun(func(lo, hi int) {
		for ; lo < hi; lo++ {
			if lo != r {
				rest = append(rest, s.value(lo))
			}
		}
	})
	return finite(orig - s.task.Agg.Compute(rest))
}

// Powers is an n^c table for one c, which the scorers at that c share.
type Powers struct{ tab []atomic.Uint64 }

// SharePowers makes pw, which a scorer at the same c filled, the scorer's
// n^c table and returns it: a Session keeps one per pool, a pool being per
// c. When pw is nil or too short for the scorer's largest group, a new one
// takes its place, with room for the groups to grow by a quarter.
func (s *Scorer) SharePowers(pw *Powers) *Powers {
	if n := min(slices.Max(s.sizes), maxPowTable); pw == nil || len(pw.tab) <= n {
		pw = &Powers{powerTable(n + n/4)}
	}
	s.pow = pw.tab
	return pw
}

// SetC updates the task's c knob in place and clears the n^c table scale
// fills; the cached per-group aggregate states and the selection memo —
// which do not depend on c — are kept, so a c sweep pays only re-scoring,
// never state rebuilding nor, for a box the memo holds, row testing. Not
// safe to call concurrently with scoring: callers (a Session's c sweeps)
// serialize runs.
func (s *Scorer) SetC(c float64) error {
	if err := validC(c); err != nil {
		return err
	}
	if s.task.C == c {
		return nil // same knob: the n^c table stays valid
	}
	s.task.C = c
	if s.pow == nil {
		s.pow = powerTable(slices.Max(s.sizes))
	}
	clear(s.pow)
	return nil
}

// maxPowTable bounds an n^c table (32 KiB) whatever the group sizes.
const maxPowTable = 4096

// powerTable is an empty n^c table for selections of up to n tuples, at
// most maxPowTable: min(n, maxPowTable) + 1 entries.
func powerTable(n int) []atomic.Uint64 {
	return make([]atomic.Uint64, min(n, maxPowTable)+1)
}
