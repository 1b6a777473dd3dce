// Package mc implements Scorpion's bottom-up MC partitioner (§6.2) for
// independent, anti-monotonic aggregates (COUNT, SUM on non-negative data).
// It adapts the CLIQUE subspace-clustering algorithm: single-attribute units
// are scored, merged, pruned against the best predicate so far, and
// intersected apriori-style to build higher-dimensional predicates until no
// merged predicate improves on the best.
//
// Pruning (§6.2, corrected): the paper's PRUNE pseudocode as printed keeps
// exactly the candidates it argues are prunable; we implement the stated
// intent. A unit p is pruned only when BOTH optimistic bounds fall below the
// best influence so far:
//
//  1. its hold-out-free influence inf(O, ∅, p, V) — because a refinement
//     of p may escape hold-out penalties (Figure 6a) but cannot gain
//     outlier influence beyond anti-monotonic Δ, and
//  2. the maximum single-tuple influence inside p — because influence is
//     only anti-monotonic when the best tuple of a subset cannot dominate
//     the subset's mean (the {1, 50, 100} SUM example).
//
// A run scores every unit and every merge through one influence.Lattice,
// on the search's goroutine; the first bound is the outlier mean of the
// unit's own scoring fold. The lattice is also the run's only lineage: a
// unit's outlier rows are its bitset over the outlier groups' positions
// (Lattice.OutlierBits), which the apriori join ANDs, the second bound
// walks, and line 15 tests for containment in a winner's bitset.
package mc

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/merge"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// Params configures the MC partitioner.
type Params struct {
	// Bins is the number of equi-width units per continuous attribute
	// (paper: 15).
	Bins int
	// MaxUnits caps the candidate population per generation (safety valve
	// against joins exploding on dense data); 0 = 4096.
	MaxUnits int
	// Domains optionally overrides the continuous unit-grid extents per
	// column index (see naive.Params.Domains): a sharded search passes the
	// global outlier extents so every shard builds an identical unit grid.
	Domains map[int]predicate.Domain
}

func (p Params) withDefaults() Params {
	if p.Bins <= 0 {
		p.Bins = 15
	}
	if p.MaxUnits <= 0 {
		p.MaxUnits = 4096
	}
	return p
}

// Result is the outcome of an MC run.
type Result struct {
	// Best is the most influential predicate found.
	Best partition.Candidate
	// Candidates holds the final merged candidate list, descending.
	Candidates []partition.Candidate
	// Iterations is the number of completed intersection rounds.
	Iterations int
	// Interrupted reports whether context cancellation cut the search
	// short; Candidates then hold the best predicates found so far.
	Interrupted bool
}

// unit is a candidate predicate with its Box over the run's space (boxed
// false when no Box holds it), its matches in the outlier groups as the
// lattice's bitset over their positions, and its score with the outlier
// mean it was computed from.
type unit struct {
	pred  predicate.Predicate
	box   predicate.Box
	boxed bool
	out   []uint64
	// dims is the number of constrained attributes.
	dims           int
	score, outMean float64
}

// RunContext executes the MC algorithm on the calling goroutine, stopping
// early (returning the best candidates found so far with
// Result.Interrupted set) once ctx is cancelled. workers is unused: MC
// scores through a lattice, which has one user.
func RunContext(ctx context.Context, scorer *influence.Scorer, space *predicate.Space, params Params, workers int) (*Result, error) {
	return runPool(partition.NewPool(ctx, 1), scorer, space, params, scorer.NewLattice(space))
}

// runPool is the search core shared by every entry point; lat, a lattice
// of scorer over space, scores every unit and merge.
func runPool(pool *partition.Pool, scorer *influence.Scorer, space *predicate.Space, params Params, lat *influence.Lattice) (*Result, error) {
	params = params.withDefaults()
	task := scorer.Task()
	if !task.Agg.Independent() {
		return nil, fmt.Errorf("mc: aggregate %q is not independent", task.Agg.Name())
	}
	am, ok := task.Agg.(aggregate.AntiMonotonic)
	if !ok {
		return nil, fmt.Errorf("mc: aggregate %q is not anti-monotonic; use DT or NAIVE", task.Agg.Name())
	}
	for _, g := range task.Outliers {
		if !am.Check(groupValues(task, g)) {
			return nil, fmt.Errorf("mc: outlier group %q violates %s's anti-monotonicity constraint", g.Key, task.Agg.Name())
		}
	}

	m := &runner{scorer: scorer, space: space, params: params, task: task, pool: pool, lat: lat}
	m.init()
	return m.run()
}

type runner struct {
	scorer *influence.Scorer
	space  *predicate.Space
	params Params
	task   *influence.Task
	pool   *partition.Pool
	lat    *influence.Lattice // scores every unit and merge of the run

	gO *relation.RowSet // union of outlier groups, for the unit grid
	// tupleInf is each outlier tuple's influence, indexed as the bits of a
	// unit's bitset.
	tupleInf []float64
	units    []unit
	// interrupted records a cancellation observed mid-phase; partially
	// scored state must not feed best-so-far updates.
	interrupted bool
	// noPrune, set only by tests, makes prune keep every unit.
	noPrune bool
}

// groupValues projects the aggregate attribute of a group.
func groupValues(task *influence.Task, g influence.Group) []float64 {
	if task.AggCol < 0 {
		return make([]float64, g.Rows.Count())
	}
	col := task.Table.Floats(task.AggCol)
	out := make([]float64, 0, g.Rows.Count())
	g.Rows.ForEach(func(r int) { out = append(out, col[r]) })
	return out
}

// init precomputes g_O, per-tuple influences, and the generation-1 units.
func (m *runner) init() {
	t := m.task
	m.gO = t.OutlierUnion()
	for gi, g := range t.Outliers {
		if m.pool.Cancelled() {
			m.interrupted = true
			return
		}
		g.Rows.ForEach(func(r int) { m.tupleInf = append(m.tupleInf, m.scorer.TupleOutlierInfluence(gi, r)) })
		// Pad to a word boundary, where the bitsets start the next group.
		m.tupleInf = append(m.tupleInf, make([]float64, -len(m.tupleInf)&63)...)
	}
	for _, col := range m.space.Columns() {
		if m.space.Kind(col) == relation.Continuous {
			m.initContinuousUnits(col)
		} else {
			m.initDiscreteUnits(col)
		}
	}
	m.scoreUnits()
}

// scoreUnits fills every unit's influence score and outlier mean through
// the run's lattice. On cancellation it flags the runner interrupted so
// partial scores are never consumed.
func (m *runner) scoreUnits() {
	for i := range m.units {
		if m.pool.Cancelled() {
			m.interrupted = true
			return
		}
		u := &m.units[i]
		sc := m.lat.Parts(u.box, u.boxed, u.pred)
		u.score, u.outMean = sc.Value, sc.OutMean
	}
}

func (m *runner) initContinuousUnits(col int) {
	t := m.task.Table
	st := t.FloatStats(col, m.gO)
	if st.Count == 0 {
		return
	}
	if dom, ok := m.params.Domains[col]; ok && dom.Hi > dom.Lo {
		st.Min, st.Max = dom.Lo, dom.Hi
	}
	if st.Max <= st.Min {
		return
	}
	name := m.space.Name(col)
	width := (st.Max - st.Min) / float64(m.params.Bins)
	for i := 0; i < m.params.Bins; i++ {
		lo := st.Min + float64(i)*width
		hi := st.Min + float64(i+1)*width
		p := predicate.MustNew(predicate.NewRangeClause(col, name, lo, hi, i == m.params.Bins-1))
		m.addUnit(p)
	}
}

func (m *runner) initDiscreteUnits(col int) {
	t := m.task.Table
	name := m.space.Name(col)
	for _, c := range t.DistinctCodes(col, m.gO) {
		p := predicate.MustNew(predicate.NewSetClause(col, name, []int32{c}))
		m.addUnit(p)
	}
}

// addUnit adds p as a generation-1 unit unless it matches no outlier row.
func (m *runner) addUnit(p predicate.Predicate) {
	b, boxed := m.space.Box(p)
	if out := m.lat.OutlierBits(b, boxed, p); !empty(out) {
		m.units = append(m.units, unit{pred: p, box: b, boxed: boxed, out: out, dims: p.NumClauses()})
	}
}

// run is the main MC loop (the paper's pseudocode, §6.2). Two deliberate
// clarifications of the pseudocode:
//
//   - `best` starts as Null, so the first iteration's line-12 filter keeps
//     every merged predicate (the paper's Merger also returns unexpanded
//     inputs, so line 15 retains all units initially);
//   - pruning compares a unit's optimistic bounds against the best score of
//     its OWN generation. Comparing fine-grained k-dim units against the
//     globally best merged (much larger) predicate would discard exactly
//     the cells the next intersection round needs — the bounds only argue
//     about refinements, while the Merger builds supersets.
func (m *runner) run() (*Result, error) {
	res := &Result{}
	if m.interrupted {
		res.Interrupted = true
		return res, nil
	}
	if len(m.units) == 0 {
		return nil, fmt.Errorf("mc: no non-empty units over the outlier groups")
	}
	maxIter := len(m.space.Columns())

	merger := merge.New(m.scorer, m.space, merge.Params{}).WithPool(m.pool).WithLattice(m.lat).WithAlgo("mc")
	global := partition.Candidate{Score: math.Inf(-1)}
	haveGlobal := false
	prevBest := math.Inf(-1) // the pseudocode's `best`: Null initially

	// One span per MC generation; the previous generation's span closes at
	// the top of the next iteration (and after the loop), so every break
	// path stays span-balanced without restructuring the exits.
	parent := obs.SpanFrom(m.pool.Context())
	var genSpan *obs.Span
	for iter := 0; iter < maxIter && len(m.units) > 0; iter++ {
		genSpan.End()
		if m.pool.Cancelled() {
			m.interrupted = true
			break
		}
		genSpan = parent.Child("mc.generation")
		genSpan.SetAttr("generation", iter)
		genSpan.SetAttr("units", len(m.units))
		if iter > 0 {
			m.units = m.intersect(m.units)
			if len(m.units) == 0 {
				break
			}
			m.scoreUnits()
			if m.interrupted {
				break // partial scores must not feed best-so-far updates
			}
		}
		genBest := math.Inf(-1)
		for _, u := range m.units {
			if u.score > genBest {
				genBest = u.score
			}
			if u.score > global.Score {
				global = partition.Candidate{Pred: u.pred, Score: u.score}
				haveGlobal = true
			}
		}
		// Line 10: prune units whose optimistic bounds cannot reach this
		// generation's best.
		m.units = m.prune(m.units, genBest)
		// Line 11: merge adjacent same-subspace units.
		cands := make([]partition.Candidate, len(m.units))
		for i, u := range m.units {
			cands[i] = partition.Candidate{Pred: u.pred, Score: u.score}
		}
		merged := merger.Merge(cands)
		res.Candidates = mergeCandidateLists(res.Candidates, merged)
		// Each iteration's accumulated candidates are a valid partial
		// answer; let observers see them mid-run.
		m.pool.PublishBest(res.Candidates)
		for _, c := range merged {
			if c.Score > global.Score {
				global = c
				haveGlobal = true
			}
		}
		// Line 12: keep merged predicates that beat the previous best.
		var winners []partition.Candidate
		for _, c := range merged {
			if c.Score > prevBest {
				winners = append(winners, c)
			}
		}
		res.Iterations = iter + 1
		if len(winners) == 0 {
			break
		}
		// Line 15: retain units contained in some winner.
		if m.units = m.contained(m.units, winners); m.interrupted {
			break
		}
		// Line 16: update best.
		if top, ok := partition.Top(winners); ok && top.Score > prevBest {
			prevBest = top.Score
		}
	}
	genSpan.End()
	res.Interrupted = m.interrupted || m.pool.Cancelled()
	if !haveGlobal {
		if res.Interrupted {
			// Cancelled before the first generation completed: return the
			// (empty) partial result rather than an error.
			return res, nil
		}
		return nil, fmt.Errorf("mc: search produced no candidates")
	}
	res.Best = global
	res.Candidates = mergeCandidateLists(res.Candidates, []partition.Candidate{global})
	partition.SortByScore(res.Candidates)
	res.Candidates = partition.Dedupe(res.Candidates)
	return res, nil
}

// contained returns the units contained in some winner: p ≺D q over the
// outlier rows, a unit's bitset a subset of the winner's. A cancellation
// flags the runner interrupted, and the result is then not to be used.
func (m *runner) contained(units []unit, winners []partition.Candidate) []unit {
	winnerOut := make([][]uint64, len(winners))
	for i, w := range winners {
		if m.pool.Cancelled() {
			m.interrupted = true
			return nil
		}
		b, boxed := m.space.Box(w.Pred)
		winnerOut[i] = m.lat.OutlierBits(b, boxed, w.Pred)
	}
	var kept []unit
	for _, u := range units {
		for _, wo := range winnerOut {
			if subset(u.out, wo) {
				kept = append(kept, u)
				break
			}
		}
	}
	return kept
}

// prune drops units whose optimistic bounds cannot beat the generation's
// best score (see package comment), preserving unit order. Both bounds are
// unweighted (no λ, no hold-out penalty), making them true upper bounds of
// the objective. A cancellation mid-way skips pruning entirely (keeping
// extra units is always sound) and lets the main loop observe the
// interruption.
func (m *runner) prune(units []unit, bestScore float64) []unit {
	if m.noPrune || math.IsInf(bestScore, -1) {
		return units
	}
	var kept []unit
	for _, u := range units {
		if m.pool.Cancelled() {
			return units
		}
		if u.outMean >= bestScore || m.maxTuple(u) >= bestScore {
			kept = append(kept, u)
		}
	}
	return kept
}

// maxTuple is the largest single-tuple influence among u's outlier rows.
func (m *runner) maxTuple(u unit) float64 {
	best := math.Inf(-1)
	for w, x := range u.out {
		for ; x != 0; x &= x - 1 {
			if v := m.tupleInf[w<<6+bits.TrailingZeros64(x)]; v > best {
				best = v
			}
		}
	}
	return best
}

// intersect performs the apriori join: pairs of k-dim units sharing k−1
// attributes produce (k+1)-dim units. A join's outlier rows are the AND of
// its parents' bitsets, so no rows are tested.
func (m *runner) intersect(units []unit) []unit {
	seen := make(map[string]bool)
	var out []unit
	var and []uint64
	for i := 0; i < len(units); i++ {
		for j := i + 1; j < len(units); j++ {
			a, b := units[i], units[j]
			if a.dims != b.dims || sharedAttrs(a.pred, b.pred) != a.dims-1 {
				continue
			}
			p, ok := a.pred.Intersect(b.pred)
			if !ok || p.NumClauses() != a.dims+1 {
				continue
			}
			key := p.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			and = and[:0]
			for w := range a.out {
				and = append(and, a.out[w]&b.out[w])
			}
			if empty(and) {
				continue
			}
			box, boxed := m.space.Box(p)
			out = append(out, unit{pred: p, box: box, boxed: boxed, out: slices.Clone(and), dims: a.dims + 1})
			if len(out) >= m.params.MaxUnits {
				return out
			}
		}
	}
	return out
}

// empty reports whether bitset a has no bit set.
func empty(a []uint64) bool {
	for _, x := range a {
		if x != 0 {
			return false
		}
	}
	return true
}

// subset reports whether every bit of a is set in b, of the same length.
func subset(a, b []uint64) bool {
	for w, x := range a {
		if x&^b[w] != 0 {
			return false
		}
	}
	return true
}

// sharedAttrs counts attributes constrained by both predicates.
func sharedAttrs(a, b predicate.Predicate) int {
	n := 0
	for _, c := range a.Clauses() {
		if _, ok := b.ClauseOn(c.Col); ok {
			n++
		}
	}
	return n
}

// mergeCandidateLists concatenates and dedupes candidate lists.
func mergeCandidateLists(a, b []partition.Candidate) []partition.Candidate {
	out := append(a, b...)
	partition.SortByScore(out)
	return partition.Dedupe(out)
}
