// Package naive implements Scorpion's exhaustive NAIVE partitioner (§4.2),
// with the §8.2 modifications: predicates are enumerated in increasing
// complexity (max discrete-clause size, then number of clauses), the search
// stops when its context does, and the best predicate found so far is
// recorded over time so convergence curves (Figure 11) can be reproduced.
//
// NAIVE makes no assumptions about the aggregate, so it is the fallback for
// black-box user-defined aggregates.
//
// The search is cancellable and parallel: RunContext threads a
// context.Context into the enumeration loop (cancellation returns the best
// predicates found so far) and fans scoring out over a partition.Pool — the
// parallelization the paper's §8.3.2 leaves to future work. All workers
// share one influence.Scorer, which is safe for concurrent use. Every
// enumerated predicate carries its enumeration sequence number, the top-k
// order is (score descending, sequence ascending), and the exact path scores
// batches against floors that follow from the enumeration alone, so its
// output, scorer calls and trace are the same for every worker count.
//
// The exact path prunes without changing an answer. A conjunction whose
// outlier groups alone score below the floor is dropped before its hold-outs
// are folded (the frontier gate). For SUM and COUNT, a prefix whose
// best-subset bound (influence.Layout.SubsetBound) is below the floor has
// its whole subtree skipped, unenumerated (the subtree gate): every
// conjunction that extends it would have been dropped. DESIGN.md proves both.
package naive

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/scorpiondb/scorpion/internal/estimate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// Params configures the NAIVE search.
type Params struct {
	// Bins is the number of equi-width ranges per continuous attribute
	// (the paper uses 15).
	Bins int
	// MaxClauses caps the number of attributes per predicate; 0 = all.
	MaxClauses int
	// MaxDiscreteSubset caps discrete clause sizes; 0 = attribute cardinality.
	MaxDiscreteSubset int
	// TopK is how many of the best candidates to retain (default
	// DefaultTopK).
	TopK int
	// Domains optionally overrides the continuous-range grid extents per
	// column index. A sharded search passes the GLOBAL outlier extents so
	// every shard enumerates an identical bin grid — candidates from
	// different shards then dedupe and bounding-box-merge exactly, instead
	// of differing by each window's local min/max. Unset (or empty-width)
	// columns keep the local data-derived extent.
	Domains map[int]predicate.Domain
	// Estimator, when non-nil, switches scoring to the anytime
	// estimate-then-escalate path (anytime.go). No served request sets it:
	// it survives only for the benchmark ladder's estimate.* lane, and goes
	// with internal/estimate once that lane is dropped. Nil runs the exact
	// search.
	Estimator *estimate.Estimator
}

// DefaultTopK is how many candidates a search retains when Params.TopK is
// unset.
const DefaultTopK = 10

// withDefaults fills zero fields with paper defaults.
func (p Params) withDefaults() Params {
	if p.Bins <= 0 {
		p.Bins = 15
	}
	if p.TopK <= 0 {
		p.TopK = DefaultTopK
	}
	return p
}

// TracePoint records a best-so-far improvement during the search.
type TracePoint struct {
	Elapsed time.Duration
	Score   float64
	Pred    predicate.Predicate
}

// Result is the outcome of a NAIVE search.
type Result struct {
	// Best is the most influential predicate found.
	Best partition.Candidate
	// TopK holds the best candidates in descending score order.
	TopK []partition.Candidate
	// Trace records every improvement of the best score in enumeration
	// order, with the wall-clock offset of its fold: only Elapsed varies
	// with the worker count. The anytime path records none.
	Trace []TracePoint
	// Enumerated counts the enumerated predicates, all of which were
	// scored: the ones in subtrees the exact path skipped are not among them.
	Enumerated int64
	// Pruned counts predicates the anytime path discarded on an interval
	// upper bound; Escalated counts those that reached the exact scorer.
	// Both stay 0 on the exact path; like Params.Estimator they survive
	// only for the benchmark ladder's estimate.* lane.
	Pruned    int64
	Escalated int64
	// Gated counts the predicates the exact path gated on their outlier
	// bound; SkippedHoldOuts the hold-out group scans it skipped;
	// SkippedSubtrees the prefixes whose every extension it skipped
	// unenumerated on their best-subset bound.
	Gated, SkippedHoldOuts, SkippedSubtrees int64
	// Interrupted reports whether context cancellation cut the search
	// short; TopK then holds the best predicates found so far.
	Interrupted bool
}

// RunContext exhaustively searches the predicate space over the given
// attributes.
//
// Clause domains are derived from the union of the outlier input groups
// (g_O): a predicate that matches no outlier tuple cannot have positive
// influence, so values appearing only outside g_O are not enumerated.
//
// The enumeration checks ctx periodically and, once cancelled, stops and
// returns the best candidates found so far with Result.Interrupted set. workers > 1 fans
// scoring out over a shared pool; workers <= 0 uses GOMAXPROCS.
func RunContext(ctx context.Context, scorer *influence.Scorer, space *predicate.Space, params Params, workers int) (*Result, error) {
	return runPool(partition.NewPool(ctx, workers), scorer, space, params)
}

// runPool is the search core shared by every entry point.
func runPool(pool *partition.Pool, scorer *influence.Scorer, space *predicate.Space, params Params) (*Result, error) {
	params = params.withDefaults()
	e, maxCard, maxClauses, err := newEnumerator(pool, scorer, space, params)
	if err != nil {
		return nil, err
	}
	res := &Result{}

	if params.Estimator != nil {
		runAnytime(e, res, pool, params, maxCard, maxClauses)
	} else {
		runExact(e, res, pool, newClauseTable(scorer, e.sets), params, maxCard, maxClauses)
	}

	res.Enumerated = e.produced
	res.Interrupted = e.interrupted
	if best, ok := partition.Top(res.TopK); ok {
		res.Best = best
	}
	return res, nil
}

// newEnumerator derives the clause inventory from the data and returns the
// enumerator over it with the bounds of its complexity passes.
func newEnumerator(pool *partition.Pool, scorer *influence.Scorer, space *predicate.Space, params Params) (e *enumerator, maxCard, maxClauses int, err error) {
	task := scorer.Task()
	clauseSets, maxCard, err := buildClauseSets(space, task.Table.Data(), task.OutlierUnion(), params)
	if err != nil {
		return nil, 0, 0, err
	}
	if params.MaxDiscreteSubset > 0 && params.MaxDiscreteSubset < maxCard {
		maxCard = params.MaxDiscreteSubset
	}
	if maxCard < 1 {
		maxCard = 1
	}
	maxClauses = len(clauseSets)
	if params.MaxClauses > 0 && params.MaxClauses < maxClauses {
		maxClauses = params.MaxClauses
	}
	e = &enumerator{
		params:       params,
		start:        time.Now(),
		sets:         clauseSets,
		pool:         pool,
		lastDiscrete: -1,
	}
	for i := range clauseSets {
		if clauseSets[i].discrete {
			e.lastDiscrete = i
		}
	}
	return e, maxCard, maxClauses, nil
}

// attrClauses holds the clause inventory of one attribute.
type attrClauses struct {
	col      int
	name     string
	discrete bool
	// ranges holds all consecutive-bin range clauses (continuous attrs),
	// as binRanges orders them.
	ranges []predicate.Clause
	// bins, when not 0, is the number of single bins the ranges tile: the
	// range of bins i…j selects exactly the rows of bins i, …, j.
	bins int
	// codes holds the distinct codes present in g_O (discrete attrs).
	codes []int32
}

// buildClauseSets computes per-attribute clause inventories and the largest
// discrete cardinality.
func buildClauseSets(space *predicate.Space, t *relation.Table, rows *relation.RowSet, params Params) ([]attrClauses, int, error) {
	var sets []attrClauses
	maxCard := 1
	for _, col := range space.Columns() {
		name := space.Name(col)
		if space.Kind(col) == relation.Continuous {
			st := t.FloatStats(col, rows)
			if st.Count == 0 {
				continue
			}
			if dom, ok := params.Domains[col]; ok && dom.Hi > dom.Lo {
				st.Min, st.Max = dom.Lo, dom.Hi
			}
			ac := attrClauses{col: col, name: name}
			ac.ranges, ac.bins = binRanges(col, name, st.Min, st.Max, params.Bins)
			sets = append(sets, ac)
			continue
		}
		codes := t.DistinctCodes(col, rows)
		if len(codes) == 0 {
			continue
		}
		if len(codes) > maxCard {
			maxCard = len(codes)
		}
		sets = append(sets, attrClauses{col: col, name: name, discrete: true, codes: codes})
	}
	if len(sets) == 0 {
		return nil, 0, fmt.Errorf("naive: no usable attributes in search space")
	}
	return sets, maxCard, nil
}

// binRanges enumerates every run of consecutive equi-width bins over
// [lo, hi]: bins·(bins+1)/2 clauses, the runs from bin 0 first, each
// start's runs by increasing end. The run that reaches the final bin is
// upper-inclusive so the domain maximum stays coverable. It also returns
// how many single bins the runs tile (see attrClauses.bins): every edge is
// lo + k·width, so bins i…j share their inner edges and span the run's
// [lo + i·width, lo + (j+1)·width), and both forms of a run that reaches
// the final bin include its upper edge. An infinite width makes the first
// edge NaN (0·Inf), and then the runs do not tile.
func binRanges(col int, name string, lo, hi float64, bins int) ([]predicate.Clause, int) {
	if hi <= lo {
		return []predicate.Clause{predicate.NewRangeClause(col, name, lo, hi, true)}, 1
	}
	width := (hi - lo) / float64(bins)
	out := make([]predicate.Clause, 0, bins*(bins+1)/2)
	for i := 0; i < bins; i++ {
		for j := i; j < bins; j++ {
			clo := lo + float64(i)*width
			chi := lo + float64(j+1)*width
			out = append(out, predicate.NewRangeClause(col, name, clo, chi, j == bins-1))
		}
	}
	if math.IsInf(width, 0) {
		return out, 0
	}
	return out, bins
}

// clauseTable holds, for the life of one exact search, the rows every clause
// of the inventory selects in every group, as bitsets over the group's row
// positions (see influence.Layout). Each clause is evaluated against the
// data once per group, here; a conjunction is then scored as the AND of its
// clauses' bitsets, however many conjunctions share a clause. The table
// belongs to the search and is garbage when it returns.
type clauseTable struct {
	layout *influence.Layout
	// words[g] is the bitset length of group g and offs[g] its offset in a
	// scratch buffer that holds one bitset per group back to back.
	words, offs []int
	total       int
	// atoms[a][g] holds attribute a's atoms for group g back to back, atom
	// k at [k*words[g], (k+1)*words[g]): one atom per range clause of a
	// continuous attribute, one per single code of a discrete attribute (a
	// value subset selects the OR of its codes' atoms).
	atoms [][][]uint64
}

func newClauseTable(scorer *influence.Scorer, sets []attrClauses) *clauseTable {
	layout := scorer.NewLayout()
	t := &clauseTable{layout: layout, atoms: make([][][]uint64, len(sets))}
	for g := 0; g < layout.Groups(); g++ {
		t.words = append(t.words, layout.Words(g))
		t.offs = append(t.offs, t.total)
		t.total += layout.Words(g)
	}
	for a := range sets {
		set := &sets[a]
		clauses := set.ranges
		if set.discrete {
			clauses = make([]predicate.Clause, len(set.codes))
			for k, code := range set.codes {
				clauses[k] = predicate.NewSetClause(set.col, set.name, []int32{code})
			}
		}
		t.atoms[a] = make([][]uint64, layout.Groups())
		for g, w := range t.words {
			masks := make([]uint64, len(clauses)*w)
			atom := func(k int) []uint64 { return masks[k*w : (k+1)*w] }
			if set.bins == 0 {
				for k := range clauses {
					layout.ClauseMask(g, &clauses[k], atom(k))
				}
			} else {
				// Scan the rows once per bin; every longer run is the run
				// one bin shorter OR its last bin.
				b := set.bins
				start := func(i int) int { return i*b - i*(i-1)/2 } // run (i, i)
				for i := 0; i < b; i++ {
					layout.ClauseMask(g, &clauses[start(i)], atom(start(i)))
				}
				for i := 0; i < b; i++ {
					for j := i + 1; j < b; j++ {
						k, bin := start(i)+j-i, atom(start(j))
						for x, m := range atom(k - 1) {
							masks[k*w+x] = m | bin[x]
						}
					}
				}
			}
			t.atoms[a][g] = masks
		}
	}
	return t
}

// scratch is where fill assembles a conjunction's bitsets: AND and OR
// buffers laid out as the table's offs, and one bitset per group in masks.
type scratch struct {
	and, or []uint64
	masks   [][]uint64
}

func (t *clauseTable) newScratch() scratch {
	return scratch{and: make([]uint64, t.total), or: make([]uint64, t.total), masks: make([][]uint64, len(t.words))}
}

// fill assembles the conjunction's bitsets of groups [lo, hi) in b.masks.
func (t *clauseTable) fill(c conj, b *scratch, lo, hi int) {
	single := len(c) == 2+int(c[1])
	first := true
	c.terms(func(attr int, atoms []int32) {
		for g := lo; g < hi; g++ {
			w := t.words[g]
			all := t.atoms[attr][g]
			term := all[int(atoms[0])*w:][:w]
			if len(atoms) > 1 {
				or := b.or[t.offs[g]:][:w]
				copy(or, term)
				for _, a := range atoms[1:] {
					for i, m := range all[int(a)*w:][:w] {
						or[i] |= m
					}
				}
				term = or
			}
			and := b.and[t.offs[g]:][:w]
			switch {
			case single:
				// One term: its bitset is the answer, uncopied.
				b.masks[g] = term
			case first:
				copy(and, term)
				b.masks[g] = and
			default:
				for i, m := range term {
					and[i] &= m
				}
			}
		}
		first = false
	})
}

// checkInterval is how many emitted predicates pass between cancellation
// checks.
const checkInterval = 64

// conj is one enumerated conjunction by reference into the clause
// inventory, as a flat list of terms: [attribute index, k, k atom indexes]
// per chosen attribute, attributes ascending. A continuous attribute's term
// names one range clause (k = 1, an index into ranges); a discrete
// attribute's term names the k codes of its value subset (ascending indexes
// into codes). Scoring works on this form; a predicate.Predicate is built
// from it only for the few conjunctions that someone gets to see.
type conj []int32

// terms calls fn for every term of the conjunction.
func (c conj) terms(fn func(attr int, atoms []int32)) {
	for i := 0; i < len(c); {
		k := int(c[i+1])
		fn(int(c[i]), c[i+2:i+2+k])
		i += 2 + k
	}
}

// enumerator walks attribute combinations and clause choices, handing each
// assembled conjunction (with its sequence number) to sink. The conjunction
// is the enumerator's own buffer: a sink that keeps it copies it.
type enumerator struct {
	params      Params
	start       time.Time
	sets        []attrClauses
	pool        *partition.Pool
	done        bool
	interrupted bool
	produced    int64
	sink        func(c conj, seq int64)
	// skip, when set, is asked before the enumeration descends into a
	// prefix that still has attributes to add; true skips every
	// conjunction that extends it. skipped counts the subtrees skipped.
	skip    func(prefix conj) bool
	skipped int64
	// lastDiscrete is the index of the last discrete attribute in sets,
	// -1 when there is none.
	lastDiscrete int
}

// predicate builds the predicate a conjunction stands for.
func (e *enumerator) predicate(c conj) predicate.Predicate {
	var clauses []predicate.Clause
	c.terms(func(attr int, atoms []int32) {
		set := &e.sets[attr]
		if !set.discrete {
			clauses = append(clauses, set.ranges[atoms[0]])
			return
		}
		codes := make([]int32, len(atoms))
		for i, a := range atoms {
			codes[i] = set.codes[a]
		}
		clauses = append(clauses, predicate.NewSetClause(set.col, set.name, codes))
	})
	return predicate.MustNew(clauses...)
}

// run drives the increasing-complexity passes: discrete subset size first,
// then clause count.
func (e *enumerator) run(maxCard, maxClauses int) {
	// Room for the longest conjunction, so that the recursion's appends
	// extend one buffer instead of allocating.
	buf := make(conj, 0, maxClauses*(2+maxCard))
	for size := 1; size <= maxCard && !e.done; size++ {
		for nAttrs := 1; nAttrs <= maxClauses && !e.done; nAttrs++ {
			e.enumerate(0, nAttrs, size, buf)
		}
	}
}

// enumerate recursively picks nAttrs attributes from sets[from:], assigning
// every clause choice; size is the current discrete-subset complexity pass.
func (e *enumerator) enumerate(from, nAttrs, size int, chosen conj) {
	if e.done {
		return
	}
	if nAttrs == 0 {
		e.emit(chosen, size)
		return
	}
	if size > 1 && from > e.lastDiscrete && e.complexity(chosen) < size {
		// No discrete attribute is left to pick, so every extension keeps
		// the prefix's complexity and belongs to an earlier pass.
		return
	}
	if len(chosen) > 0 && e.skip != nil && e.skip(chosen) {
		e.skipped++
		e.poll(e.skipped)
		return
	}
	for i := from; i+nAttrs <= len(e.sets); i++ {
		set := &e.sets[i]
		if set.discrete {
			e.enumerateSubsets(set, size, 1, 0, make([]int32, 0, size), func(codes []int32) {
				term := append(append(chosen, int32(i), int32(len(codes))), codes...)
				e.enumerate(i+1, nAttrs-1, size, term)
			})
		} else {
			for k := range set.ranges {
				e.enumerate(i+1, nAttrs-1, size, append(chosen, int32(i), 1, int32(k)))
				if e.done {
					return
				}
			}
		}
	}
}

// enumerateSubsets yields all value subsets of sizes [minSize..size], as
// ascending indexes into set.codes.
func (e *enumerator) enumerateSubsets(set *attrClauses, size, minSize, from int, cur []int32, yield func([]int32)) {
	if e.done {
		return
	}
	if len(cur) >= minSize {
		yield(cur)
	}
	if len(cur) == size {
		return
	}
	for i := from; i < len(set.codes); i++ {
		e.enumerateSubsets(set, size, minSize, i+1, append(cur, int32(i)), yield)
		if e.done {
			return
		}
	}
}

// emit hands a fully-assembled conjunction to the sink, de-duplicating
// across complexity passes: a conjunction is emitted only in the pass equal
// to its largest discrete clause (or pass 1 when it has none). Every
// checkInterval emissions it polls the pool's context, as enumerate does
// every checkInterval skipped subtrees.
func (e *enumerator) emit(c conj, size int) {
	if e.complexity(c) != size {
		return
	}

	seq := e.produced
	e.produced++
	e.sink(c, seq)
	e.poll(e.produced)
}

// complexity is the pass a conjunction belongs to: the size of its largest
// discrete clause, or 1 when it has none.
func (e *enumerator) complexity(c conj) int {
	complexity := 1
	c.terms(func(attr int, atoms []int32) {
		if e.sets[attr].discrete && len(atoms) > complexity {
			complexity = len(atoms)
		}
	})
	return complexity
}

// poll stops the enumeration once the pool's context is done, looking
// every checkInterval counts of n.
func (e *enumerator) poll(n int64) {
	if n%checkInterval == 0 && e.pool.Cancelled() {
		e.interrupted = true
		e.done = true
	}
}

// conjBatch is a run of consecutively enumerated conjunctions, copied out
// of the enumerator's buffer back to back: conjunction i is
// terms[ends[i-1]:ends[i]] and has sequence number first+i. A worker scores
// it against floor into hits, assembling bitsets in its scratch, then
// signals ready.
type conjBatch struct {
	scratch
	first        int64
	terms, ends  []int32
	floor        float64
	hits         []ranked[int32]
	folds, gated int
	ready        chan struct{}
}

func (t *clauseTable) newBatch() *conjBatch {
	return &conjBatch{scratch: t.newScratch(), ready: make(chan struct{}, 1)}
}

func (b *conjBatch) len() int { return len(b.ends) }

func (b *conjBatch) add(c conj, seq int64) {
	if len(b.ends) == 0 {
		b.first = seq
	}
	b.terms = append(b.terms, c...)
	b.ends = append(b.ends, int32(len(b.terms)))
}

func (b *conjBatch) at(i int) conj {
	lo := int32(0)
	if i > 0 {
		lo = b.ends[i-1]
	}
	return b.terms[lo:b.ends[i]]
}

// score scores the batch, assembling a conjunction's hold-out bitsets only
// when the layout's objective first folds a hold-out, and adds the groups
// it folded to the scorer's calls in one step.
func (b *conjBatch) score(t *clauseTable) {
	nOut, n := t.layout.Outliers(), len(t.words)
	for i := range b.len() {
		c := b.at(i)
		t.fill(c, &b.scratch, 0, nOut)
		score, folded, ok := t.layout.Score(b.masks, func() { t.fill(c, &b.scratch, nOut, n) }, b.floor)
		b.folds += folded
		switch {
		case ok:
			b.hits = append(b.hits, ranked[int32]{score, b.first + int64(i), int32(i)})
		case folded == nOut:
			b.gated++
		}
	}
	t.layout.Count(b.folds)
	b.ready <- struct{}{}
}

// Batch b is scored against the k-th best score kept after folding batches
// 0 … b−lag (−Inf until k are kept), and batches fold in enumeration order:
// floors, gates, scorer calls and trace follow from the enumeration alone,
// whatever the worker count. At most lag batches are scored at once.
const batchSize, lag = 128, 4

// runExact scores the enumeration batch by batch over the pool (inline on a
// one-worker pool) and folds the batches into the top-k and the trace.
func runExact(e *enumerator, res *Result, pool *partition.Pool, tbl *clauseTable, params Params, maxCard, maxClauses int) {
	keeper := topK[predicate.Predicate]{k: params.TopK}
	submit, wait := func(b *conjBatch) { b.score(tbl) }, func() {}
	if pool.Workers() > 1 {
		submit, wait = partition.Stream(pool, submit)
	}
	var inflight []*conjBatch // oldest first; a folded batch is refilled
	// foldOldest folds the oldest batch in flight once it is scored and
	// returns it for reuse; nil if cancellation came first (and dropped it).
	// A batch already scored is folded even once cancelled, so a search its
	// context's deadline stops keeps every predicate it scored.
	foldOldest := func() *conjBatch {
		b := inflight[0]
		select {
		case <-b.ready:
		default:
			select {
			case <-b.ready:
			case <-pool.Context().Done():
				return nil
			}
		}
		changed := false
		for _, h := range b.hits {
			slot := keeper.slot(h.score, h.seq)
			improved := len(res.Trace) == 0 || h.score > res.Trace[len(res.Trace)-1].Score
			if slot < 0 && !improved {
				continue
			}
			// Only an entrant to the top-k or the trace is worth a
			// predicate value; the rest were scored from their indexes.
			p := e.predicate(b.at(int(h.val)))
			if slot >= 0 {
				keeper.put(slot, ranked[predicate.Predicate]{h.score, h.seq, p})
				changed = true
			}
			if improved {
				res.Trace = append(res.Trace, TracePoint{Elapsed: time.Since(e.start), Score: h.score, Pred: p})
			}
		}
		res.Gated += int64(b.gated)
		res.SkippedHoldOuts += int64(b.len()*len(tbl.words) - b.folds)
		if changed && pool.Board() != nil {
			pool.PublishBest(candidates(&keeper))
		}
		inflight = append(inflight[:0], inflight[1:]...)
		return b
	}
	cur := tbl.newBatch()
	flush := func() {
		var next *conjBatch
		for len(inflight) >= lag {
			if next = foldOldest(); next == nil {
				e.done, e.interrupted = true, true
				return
			}
		}
		cur.floor = keeper.floor()
		inflight = append(inflight, cur)
		submit(cur)
		if cur = next; cur == nil {
			cur = tbl.newBatch()
		}
		cur.terms, cur.ends, cur.hits, cur.folds, cur.gated = cur.terms[:0], cur.ends[:0], cur.hits[:0], 0, 0
	}
	e.sink = func(c conj, seq int64) {
		if cur.add(c, seq); cur.len() >= batchSize {
			flush()
		}
	}
	// The subtree gate: every batch from here on is scored against a floor
	// no lower than the last flushed batch's, which is the keeper's floor
	// until the next flush; −Inf and NaN floors gate nothing.
	if tbl.layout.SubsetBounded() {
		pre, nOut := tbl.newScratch(), tbl.layout.Outliers()
		e.skip = func(prefix conj) bool {
			floor := keeper.floor()
			if !(floor > math.Inf(-1)) {
				return false
			}
			tbl.fill(prefix, &pre, 0, nOut)
			return tbl.layout.SubsetBound(pre.masks) < floor
		}
	}
	e.run(maxCard, maxClauses)
	if cur.len() > 0 && !e.interrupted {
		flush()
	}
	wait()
	for len(inflight) > 0 && foldOldest() != nil {
	}
	if pool.Cancelled() {
		e.interrupted = true
	}
	res.TopK = candidates(&keeper)
	res.SkippedSubtrees = e.skipped
	span, reg := obs.SpanFrom(pool.Context()), obs.RegistryFrom(pool.Context())
	span.SetAttr("gated", res.Gated)
	span.SetAttr("holdouts_skipped", res.SkippedHoldOuts)
	span.SetAttr("subtrees_skipped", res.SkippedSubtrees)
	reg.Counter("scorpion_naive_gated_total").Add(float64(res.Gated))
	reg.Counter("scorpion_naive_holdouts_skipped_total").Add(float64(res.SkippedHoldOuts))
	reg.Counter("scorpion_naive_subtrees_skipped_total").Add(float64(res.SkippedSubtrees))
}

// ranked is one scored entry of a top-k list. seq is its enumeration
// sequence number — the tie-break that makes parallel and serial top-k
// selections identical.
type ranked[T any] struct {
	score float64
	seq   int64
	val   T
}

// outranks reports whether a strictly precedes b in the result order:
// higher score first (NaN last), earlier enumeration on ties — two NaNs
// tie. Sequence numbers are
// unique, so this is a strict total order and the top-k of any emission set
// is unique and independent of scoring order.
func (a ranked[T]) outranks(b ranked[T]) bool { return outranks(a.score, a.seq, b.score, b.seq) }

func outranks(aScore float64, aSeq int64, bScore float64, bSeq int64) bool {
	switch {
	case partition.Better(aScore, bScore):
		return true
	case partition.Better(bScore, aScore):
		return false
	}
	return aSeq < bSeq
}

// topK is a bounded best-entries list under the outranks order. Its
// contents after offering any set of entries are the set's unique top k,
// regardless of arrival order.
type topK[T any] struct {
	k    int
	list []ranked[T]
}

// slot returns where an entry ranked (score, seq) would go — a fresh slot
// while the list has room, else the worst entry's if the newcomer outranks
// it — or -1 when it would not enter. Asking first lets a caller build an
// expensive val only for entrants.
func (t *topK[T]) slot(score float64, seq int64) int {
	if len(t.list) < t.k {
		return len(t.list)
	}
	if w := t.worst(); outranks(score, seq, t.list[w].score, t.list[w].seq) {
		return w
	}
	return -1
}

// worst returns the index of the last-ranked entry of a non-empty list.
func (t *topK[T]) worst() (w int) {
	for i := 1; i < len(t.list); i++ {
		if t.list[w].outranks(t.list[i]) {
			w = i
		}
	}
	return w
}

// floor is the score below which no newcomer can enter: the worst kept
// score once the list is full (NaN, which gates nothing, if it is NaN),
// −Inf before.
func (t *topK[T]) floor() float64 {
	if len(t.list) < t.k {
		return math.Inf(-1)
	}
	return t.list[t.worst()].score
}

// put stores an entry at a slot that slot returned for it.
func (t *topK[T]) put(slot int, r ranked[T]) {
	if slot == len(t.list) {
		t.list = append(t.list, r)
		return
	}
	t.list[slot] = r
}

func (t *topK[T]) offer(score float64, seq int64, val T) {
	if slot := t.slot(score, seq); slot >= 0 {
		t.put(slot, ranked[T]{score, seq, val})
	}
}

// candidates returns the kept predicates in result order.
func candidates(t *topK[predicate.Predicate]) []partition.Candidate {
	sort.Slice(t.list, func(i, j int) bool { return t.list[i].outranks(t.list[j]) })
	out := make([]partition.Candidate, len(t.list))
	for i, r := range t.list {
		out[i] = partition.Candidate{Pred: r.val, Score: r.score}
	}
	return out
}
