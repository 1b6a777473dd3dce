package dt

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/sample"
)

// tree builds one synchronized regression tree over a set of input groups
// (§6.1.1–6.1.3). Split decisions minimize the maximum per-group weighted
// child standard deviation of tuple influence.
//
// The build is a breadth-first frontier expansion on the calling
// goroutine; leaves are emitted in frontier order. Every node draws its
// sampling randomness from an RNG seeded by (SampleSeed, node id) — the
// heap-style path id root=1, children 2i/2i+1 — so a node's sample does not
// depend on which nodes were expanded before it.
type tree struct {
	scorer *influence.Scorer
	space  *predicate.Space
	params Params
	groups []influence.Group
	// tupleInf returns the influence of a row within group gi.
	tupleInf func(gi, row int) float64
	// infCache memoizes tuple influences per group (row → influence).
	infCache []map[int]float64
	// Tree-global influence bounds, fixed from the root samples.
	infL, infU float64
	// minSize is the effective minimum sampled-tuple count per node:
	// the minSize constant clamped so tiny datasets can still split.
	minSize int
	leaves  []Leaf
	// interrupted records a context cancellation during the build; the
	// emitted leaves then include unfinished nodes as coarse partitions.
	interrupted bool
}

// nodeGroup is one group's data within a tree node.
type nodeGroup struct {
	full    []int     // all rows of the group inside the node's box
	sampled []int     // sampled rows
	infs    []float64 // influence per sampled row
	rate    float64   // sampling rate used
}

type node struct {
	// id is the heap-style path id (root 1, children 2id and 2id+1); it
	// seeds the node's sampling RNG, making the build independent of
	// execution order.
	id     uint64
	pred   predicate.Predicate
	groups []nodeGroup
	depth  int
}

func newTree(scorer *influence.Scorer, space *predicate.Space, params Params,
	groups []influence.Group, tupleInf func(int, int) float64) *tree {
	t := &tree{
		scorer:   scorer,
		space:    space,
		params:   params,
		groups:   groups,
		tupleInf: tupleInf,
		infCache: make([]map[int]float64, len(groups)),
	}
	for i := range t.infCache {
		t.infCache[i] = make(map[int]float64)
	}
	return t
}

// rngFor derives a node-local RNG from the tree seed and the node id via a
// splitmix64-style mix, so sibling nodes get decorrelated streams and the
// draw sequence depends only on the node's position in the tree.
func (t *tree) rngFor(id uint64) *rand.Rand {
	x := uint64(t.params.SampleSeed) ^ (id * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

func (t *tree) influenceOf(gi, row int) float64 {
	v, ok := t.infCache[gi][row]
	if !ok {
		v = t.tupleInf(gi, row)
		t.infCache[gi][row] = v
	}
	return v
}

// build runs the frontier partitioner and returns the leaves. Once ctx is
// cancelled, the nodes not yet expanded are kept as coarse leaves so the
// partitioning still tiles the space.
func (t *tree) build(ctx context.Context) []Leaf {
	parent := obs.SpanFrom(ctx)
	frontier := []node{t.makeRoot(ctx)}
	for level := 0; len(frontier) > 0; level++ {
		span := parent.Child("dt.level")
		span.SetAttr("level", level)
		span.SetAttr("nodes", len(frontier))
		var next []node
		for i := range frontier {
			if ctx.Err() != nil {
				t.emitLeaf(frontier[i])
				continue
			}
			if children, split := t.process(&frontier[i]); split {
				next = append(next, children[0], children[1])
			} else {
				t.emitLeaf(frontier[i])
			}
		}
		frontier = next
		span.SetAttr("split", len(next)/2)
		span.End()
		if ctx.Err() != nil {
			t.interrupted = true
			for i := range frontier {
				t.emitLeaf(frontier[i])
			}
			break
		}
	}
	return t.leaves
}

// makeRoot draws the §6.1.2 initial sample and fixes the tree-global
// influence bounds.
func (t *tree) makeRoot(ctx context.Context) node {
	root := node{id: 1, pred: predicate.True(), depth: 0}
	total := 0
	for _, g := range t.groups {
		total += g.Rows.Count()
	}
	rate := 1.0
	if !t.params.DisableSampling {
		rate = sample.InitialRate(total, sampleEpsilon, sampleConfidence)
	}
	rng := t.rngFor(root.id)
	for _, g := range t.groups {
		ng := nodeGroup{rate: rate}
		g.Rows.ForEach(func(r int) { ng.full = append(ng.full, r) })
		set := sample.Uniform(rng, g.Rows, rate)
		set.ForEach(func(r int) { ng.sampled = append(ng.sampled, r) })
		root.groups = append(root.groups, ng)
	}
	// Guarantee a minimally useful root sample.
	t.ensureMinSample(&root, rng)

	for gi := range root.groups {
		ng := &root.groups[gi]
		ng.infs = make([]float64, len(ng.sampled))
		for i, r := range ng.sampled {
			if ctx.Err() != nil {
				// Cancelled: cut the sample to the rows computed, so the
				// tree bounds and leaf statistics never mix in
				// placeholder zeros.
				t.interrupted = true
				ng.sampled, ng.infs = ng.sampled[:i], ng.infs[:i]
				break
			}
			ng.infs[i] = t.influenceOf(gi, r)
		}
	}

	t.infL, t.infU = math.Inf(1), math.Inf(-1)
	for gi := range root.groups {
		for _, v := range root.groups[gi].infs {
			if v < t.infL {
				t.infL = v
			}
			if v > t.infU {
				t.infU = v
			}
		}
	}
	if math.IsInf(t.infL, 1) {
		t.infL, t.infU = 0, 0
	}
	t.minSize = minSize
	if adaptive := total / 3; adaptive < t.minSize {
		t.minSize = adaptive
	}
	if t.minSize < 2 {
		t.minSize = 2
	}
	return root
}

// ensureMinSample tops up each group's sample to minSize rows when the
// initial rate under-draws tiny groups.
func (t *tree) ensureMinSample(n *node, rng *rand.Rand) {
	for gi := range n.groups {
		ng := &n.groups[gi]
		if len(ng.sampled) >= minSize || len(ng.sampled) == len(ng.full) {
			continue
		}
		have := make(map[int]bool, len(ng.sampled))
		for _, r := range ng.sampled {
			have[r] = true
		}
		perm := rng.Perm(len(ng.full))
		for _, idx := range perm {
			if len(ng.sampled) >= minSize {
				break
			}
			r := ng.full[idx]
			if !have[r] {
				ng.sampled = append(ng.sampled, r)
				have[r] = true
			}
		}
		sort.Ints(ng.sampled)
	}
}

// nodeStats summarizes a node: pooled count/max and the per-group stds.
func (t *tree) nodeStats(n *node) (pooledCount int, pooledMax float64, maxStd float64) {
	pooledMax = math.Inf(-1)
	for gi := range n.groups {
		ng := &n.groups[gi]
		pooledCount += len(ng.infs)
		var sum, sumsq float64
		for _, v := range ng.infs {
			sum += v
			sumsq += v * v
			if v > pooledMax {
				pooledMax = v
			}
		}
		if len(ng.infs) > 0 {
			m := sum / float64(len(ng.infs))
			variance := sumsq/float64(len(ng.infs)) - m*m
			if variance < 0 {
				variance = 0
			}
			if sd := math.Sqrt(variance); sd > maxStd {
				maxStd = sd
			}
		}
	}
	if math.IsInf(pooledMax, -1) {
		pooledMax = 0
	}
	return pooledCount, pooledMax, maxStd
}

// process decides one node's fate: either it splits (returning the two
// children) or it is a leaf.
func (t *tree) process(n *node) (children [2]node, split bool) {
	count, infMax, maxStd := t.nodeStats(n)
	thr := threshold(infMax, t.infL, t.infU, tauMin, tauMax, inflectionP)
	if n.depth >= maxDepth || count < t.minSize || maxStd <= thr {
		return children, false
	}
	best, ok := t.bestSplit(n, maxStd)
	if !ok {
		return children, false
	}
	left, right := t.apply(n, best)
	if t.degenerate(left) || t.degenerate(right) {
		return children, false
	}
	return [2]node{left, right}, true
}

func (t *tree) degenerate(n node) bool {
	total := 0
	for _, g := range n.groups {
		total += len(g.full)
	}
	return total == 0
}

// candidateSplit describes a potential binary split.
type candidateSplit struct {
	col      int
	metric   float64
	value    float64 // continuous split point
	discrete bool
	leftVals []int32 // discrete: codes routed left
}

// bestSplit evaluates all candidate (attribute, cut) pairs, combining the
// per-group error metrics by max (§6.1.3), and returns the minimizer if it
// improves on the node's current metric.
func (t *tree) bestSplit(n *node, nodeStd float64) (candidateSplit, bool) {
	best := candidateSplit{metric: math.Inf(1)}
	for _, col := range t.space.Columns() {
		if t.space.Kind(col) == relation.Continuous {
			t.continuousSplits(n, col, &best)
		} else {
			t.discreteSplit(n, col, &best)
		}
	}
	if math.IsInf(best.metric, 1) || best.metric >= nodeStd {
		return candidateSplit{}, false
	}
	return best, true
}

// continuousSplits tries quantile cut points of the pooled sample.
func (t *tree) continuousSplits(n *node, col int, best *candidateSplit) {
	vals := t.space.Table().Floats(col)
	var pool []float64
	for _, g := range n.groups {
		for _, r := range g.sampled {
			pool = append(pool, vals[r])
		}
	}
	if len(pool) < 2 {
		return
	}
	sort.Float64s(pool)
	k := contSplitCandidates
	tried := make(map[float64]bool, k)
	for i := 1; i <= k; i++ {
		v := pool[len(pool)*i/(k+1)]
		if v <= pool[0] || v > pool[len(pool)-1] || tried[v] {
			continue
		}
		tried[v] = true
		metric := t.splitMetric(n, func(r int) bool { return vals[r] < v })
		if metric < best.metric {
			*best = candidateSplit{col: col, metric: metric, value: v}
		}
	}
}

// discreteSplit orders the node's values by pooled mean influence and scans
// every prefix cut (the CART categorical reduction).
func (t *tree) discreteSplit(n *node, col int, best *candidateSplit) {
	codes := t.space.Table().Codes(col)
	type valStat struct {
		code       int32
		count      int
		sum        float64
		groupCnt   []int
		groupSum   []float64
		groupSumSq []float64
	}
	stats := make(map[int32]*valStat)
	for gi := range n.groups {
		g := &n.groups[gi]
		for i, r := range g.sampled {
			c := codes[r]
			vs, ok := stats[c]
			if !ok {
				vs = &valStat{
					code:       c,
					groupCnt:   make([]int, len(n.groups)),
					groupSum:   make([]float64, len(n.groups)),
					groupSumSq: make([]float64, len(n.groups)),
				}
				stats[c] = vs
			}
			v := g.infs[i]
			vs.count++
			vs.sum += v
			vs.groupCnt[gi]++
			vs.groupSum[gi] += v
			vs.groupSumSq[gi] += v * v
		}
	}
	if len(stats) < 2 {
		return
	}
	ordered := make([]*valStat, 0, len(stats))
	for _, vs := range stats {
		ordered = append(ordered, vs)
	}
	sort.Slice(ordered, func(i, j int) bool {
		mi := ordered[i].sum / float64(ordered[i].count)
		mj := ordered[j].sum / float64(ordered[j].count)
		if mi != mj {
			return mi < mj
		}
		return ordered[i].code < ordered[j].code
	})

	nG := len(n.groups)
	// Prefix accumulators per group.
	cntL := make([]float64, nG)
	sumL := make([]float64, nG)
	sumSqL := make([]float64, nG)
	cntT := make([]float64, nG)
	sumT := make([]float64, nG)
	sumSqT := make([]float64, nG)
	for _, vs := range ordered {
		for gi := 0; gi < nG; gi++ {
			cntT[gi] += float64(vs.groupCnt[gi])
			sumT[gi] += vs.groupSum[gi]
			sumSqT[gi] += vs.groupSumSq[gi]
		}
	}
	for cut := 0; cut < len(ordered)-1; cut++ {
		vs := ordered[cut]
		for gi := 0; gi < nG; gi++ {
			cntL[gi] += float64(vs.groupCnt[gi])
			sumL[gi] += vs.groupSum[gi]
			sumSqL[gi] += vs.groupSumSq[gi]
		}
		metric := 0.0
		for gi := 0; gi < nG; gi++ {
			nL, nR := cntL[gi], cntT[gi]-cntL[gi]
			if nL+nR == 0 {
				continue
			}
			sdL := stdFromSums(sumL[gi], sumSqL[gi], nL)
			sdR := stdFromSums(sumT[gi]-sumL[gi], sumSqT[gi]-sumSqL[gi], nR)
			m := (nL*sdL + nR*sdR) / (nL + nR)
			if m > metric {
				metric = m
			}
		}
		if metric < best.metric {
			left := make([]int32, 0, cut+1)
			for i := 0; i <= cut; i++ {
				left = append(left, ordered[i].code)
			}
			*best = candidateSplit{col: col, metric: metric, discrete: true, leftVals: left}
		}
	}
}

func stdFromSums(sum, sumsq, n float64) float64 {
	if n <= 0 {
		return 0
	}
	m := sum / n
	v := sumsq/n - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// splitMetric computes max over groups of the weighted child std for an
// arbitrary left-routing function.
func (t *tree) splitMetric(n *node, goesLeft func(row int) bool) float64 {
	worst := 0.0
	for gi := range n.groups {
		g := &n.groups[gi]
		var cntL, sumL, sumSqL, cntR, sumR, sumSqR float64
		for i, r := range g.sampled {
			v := g.infs[i]
			if goesLeft(r) {
				cntL++
				sumL += v
				sumSqL += v * v
			} else {
				cntR++
				sumR += v
				sumSqR += v * v
			}
		}
		if cntL+cntR == 0 {
			continue
		}
		m := (cntL*stdFromSums(sumL, sumSqL, cntL) + cntR*stdFromSums(sumR, sumSqR, cntR)) / (cntL + cntR)
		if m > worst {
			worst = m
		}
	}
	return worst
}

// apply materializes the two children of a split, re-sampling each child at
// the §6.1.2 stratified rate. Each child samples from its own node-id RNG.
func (t *tree) apply(n *node, sp candidateSplit) (node, node) {
	table := t.space.Table()
	var goesLeft func(row int) bool
	var leftClause, rightClause predicate.Clause
	name := t.space.Name(sp.col)

	if sp.discrete {
		leftSet := make(map[int32]bool, len(sp.leftVals))
		for _, c := range sp.leftVals {
			leftSet[c] = true
		}
		codes := table.Codes(sp.col)
		goesLeft = func(r int) bool { return leftSet[codes[r]] }
		// Right values: the node's current values minus the left ones.
		cur, ok := n.pred.ClauseOn(sp.col)
		if !ok {
			cur = t.space.FullClause(sp.col)
		}
		var rightVals []int32
		for _, c := range cur.Values {
			if !leftSet[c] {
				rightVals = append(rightVals, c)
			}
		}
		leftClause = predicate.NewSetClause(sp.col, name, sp.leftVals)
		rightClause = predicate.NewSetClause(sp.col, name, rightVals)
	} else {
		vals := table.Floats(sp.col)
		goesLeft = func(r int) bool { return vals[r] < sp.value }
		cur, ok := n.pred.ClauseOn(sp.col)
		if !ok {
			cur = t.space.FullClause(sp.col)
		}
		leftClause = predicate.NewRangeClause(sp.col, name, cur.Lo, sp.value, false)
		rightClause = predicate.NewRangeClause(sp.col, name, sp.value, cur.Hi, cur.HiInc)
	}

	left := node{id: 2 * n.id, pred: replaceClause(n.pred, leftClause), depth: n.depth + 1}
	right := node{id: 2*n.id + 1, pred: replaceClause(n.pred, rightClause), depth: n.depth + 1}
	leftRng := t.rngFor(left.id)
	rightRng := t.rngFor(right.id)

	for gi := range n.groups {
		g := &n.groups[gi]
		lg, rg := nodeGroup{}, nodeGroup{}
		for _, r := range g.full {
			if goesLeft(r) {
				lg.full = append(lg.full, r)
			} else {
				rg.full = append(rg.full, r)
			}
		}
		// Influence mass of the parent's sample on each side.
		var infLmass, infRmass float64
		for i, r := range g.sampled {
			if goesLeft(r) {
				infLmass += math.Abs(g.infs[i])
			} else {
				infRmass += math.Abs(g.infs[i])
			}
		}
		if t.params.DisableSampling {
			lg.rate, rg.rate = 1, 1
		} else {
			// No minimum rate: the fixed sample budget |S| flowing down the
			// tree is what bounds its growth (§6.1.2) — influential
			// children inherit most of it, non-influential ones starve and
			// the `count < minSize` stop fires.
			lg.rate, rg.rate = sample.SplitRates(infLmass, infRmass,
				len(g.sampled), len(lg.full), len(rg.full), 0)
		}
		t.sampleChild(gi, &lg, leftRng)
		t.sampleChild(gi, &rg, rightRng)
		left.groups = append(left.groups, lg)
		right.groups = append(right.groups, rg)
	}
	return left, right
}

// sampleChild draws the child's sample from its full rows and computes the
// (memoized) influences.
func (t *tree) sampleChild(gi int, g *nodeGroup, rng *rand.Rand) {
	if g.rate >= 1 {
		g.sampled = append([]int(nil), g.full...)
	} else {
		for _, r := range g.full {
			if rng.Float64() < g.rate {
				g.sampled = append(g.sampled, r)
			}
		}
		// Never sample a non-empty child down to nothing.
		if len(g.sampled) == 0 && len(g.full) > 0 {
			g.sampled = append(g.sampled, g.full[rng.Intn(len(g.full))])
		}
	}
	g.infs = make([]float64, len(g.sampled))
	for i, r := range g.sampled {
		g.infs[i] = t.influenceOf(gi, r)
	}
}

// replaceClause swaps the clause on cl.Col (if any) for cl.
func replaceClause(p predicate.Predicate, cl predicate.Clause) predicate.Predicate {
	clauses := make([]predicate.Clause, 0, p.NumClauses()+1)
	for _, c := range p.Clauses() {
		if c.Col != cl.Col {
			clauses = append(clauses, c)
		}
	}
	clauses = append(clauses, cl)
	return predicate.MustNew(clauses...)
}

// emitLeaf converts a node into a Leaf with its per-group statistics.
func (t *tree) emitLeaf(n node) {
	leaf := Leaf{
		Pred:       n.pred,
		Cards:      make([]float64, len(n.groups)),
		Means:      make([]float64, len(n.groups)),
		CachedRows: make([]int, len(n.groups)),
	}
	var pooledSum float64
	pooledCount := 0
	for gi := range n.groups {
		g := &n.groups[gi]
		leaf.Cards[gi] = float64(len(g.full))
		leaf.CachedRows[gi] = -1
		if len(g.sampled) == 0 {
			continue
		}
		var sum float64
		for _, v := range g.infs {
			sum += v
		}
		mean := sum / float64(len(g.infs))
		leaf.Means[gi] = mean
		pooledSum += sum
		pooledCount += len(g.infs)
		bestDist := math.Inf(1)
		for i, v := range g.infs {
			if d := math.Abs(v - mean); d < bestDist {
				bestDist = d
				leaf.CachedRows[gi] = g.sampled[i]
			}
		}
	}
	if pooledCount > 0 {
		leaf.MeanInfluence = pooledSum / float64(pooledCount)
	}
	leaf.SampledCount = pooledCount
	t.leaves = append(t.leaves, leaf)
}
