// Package estimate is the progressive (anytime) scoring layer: sample-based
// influence estimates with distribution-sensitive confidence intervals, in
// the spirit of rapid approximate aggregation with interval guarantees
// (PAPERS.md). The exact influence.Scorer scans every row of every flagged
// group per predicate; the Estimator instead maintains per-group stratified
// row samples — each input group is a stratum, sampled uniformly without
// replacement at a ladder of increasing fractions — and computes a
// [lower, upper] interval for inf(O, H, p, V) from each prefix.
//
// The only probabilistic statement is about the MATCH COUNT: the sampled
// match frequency brackets the group's true matched-row count through
// finite-sample tail bounds (empirical Bernstein below, a Chernoff
// lower-tail inversion above, and the exact (1−m/n)^k zero-match tail when
// the sample matches nothing — all valid for sampling without replacement,
// which binomial tails dominate). Everything else is deterministic: the
// UNSAMPLED rows' aggregate values are known exactly, so given "at most t
// matched rows hide outside the sample", the matched sum can exceed the
// observed sample sum by at most the sum of the t largest unsampled values
// (and fall below it by at most the t smallest) — order statistics, not a
// concentration bound. Count and sum stay coupled through the |p(g)|^c
// denominator: the bound maximizes dir·s/max(1,cnt+t)^c over the hidden
// count t itself, so "many hidden rows" pays the selectivity penalty that
// a naive corner evaluation would ignore.
//
// The confidence budget is split (Bonferroni) across every per-group
// statistic and ladder level, so one Estimator interval holds with the
// requested confidence as a whole.
//
// Estimation applies to aggregates whose Δ is linear in the matched rows —
// SUM and COUNT, exactly the aggregates the MC path handles. New returns
// nil for anything else (black-box UDAs, AVG), which callers treat as "run
// exact".
package estimate

import (
	"math"
	"math/rand"
	"sort"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/sample"
)

// DefaultConfidence is the interval confidence used when the knob is unset.
const DefaultConfidence = 0.95

// defaultMinRows is the smallest per-group sample any ladder level uses:
// below this, variance estimates are too noisy to prune anything anyway.
const defaultMinRows = 64

// defaultFractions is the refinement ladder: the per-group sample fraction
// at each level. The last level is deliberately well below 1 — a candidate
// still ambiguous after the ladder escalates to the exact scorer, which
// scans the whole groups anyway.
var defaultFractions = []float64{0.05, 0.25}

// Interval is a confidence interval over an influence value.
type Interval struct {
	Lo, Hi float64
}

// Params tunes an Estimator.
type Params struct {
	// Epsilon is the caller's per-rank error budget (the anytime knob);
	// must be > 0 — estimation is pointless on the exact path.
	Epsilon float64
	// Confidence is the interval coverage target in (0,1); 0 means
	// DefaultConfidence.
	Confidence float64
	// Fractions overrides the refinement-ladder sample fractions
	// (ascending, in (0,1]); nil means defaultFractions.
	Fractions []float64
	// MinRows overrides the per-group minimum sample size (default 64).
	MinRows int
	// Gen identifies the table state for seeding; 0 means the table's row
	// count (a generation proxy: an append reseeds, a re-run does not).
	Gen int64
}

// deltaKind classifies the supported linear-Δ aggregates.
type deltaKind int

const (
	kindSum deltaKind = iota
	kindCount
)

// nBands is the number of value strata per group: matched counts are
// bounded per band, so a predicate whose sample matched nothing among a
// group's high-valued rows cannot be charged many hidden high-value matches
// — only the band's zero-match tail. Bands are contiguous ranges of the
// value-sorted rows, so every value in band b+1 is >= every value in band b
// (the property the greedy hidden-mass allocation relies on).
const nBands = 4

// groupSample is one input group's stratum: its rows in a deterministic
// shuffled order (so every ladder level is a uniform without-replacement
// sample, and deeper levels extend shallower ones), the aggregate value per
// row, and per-level order statistics of the unsampled remainder.
type groupSample struct {
	rows   []int
	vals   []float64 // nil for COUNT (values never read)
	n      int
	dir    float64     // outlier error vector; 1 for hold-outs (penalty is |inf|)
	levels []int       // sample size per ladder level
	bandID []uint8     // value band per shuffled index (SUM only)
	tails  []levelTail // per level: hidden-mass order statistics (SUM only)
	// bandMin/bandMax are each band's full value range — the range constant
	// for the per-band empirical-Bernstein sum bound (SUM only).
	bandMin, bandMax []float64
}

// levelTail summarizes the rows OUTSIDE one ladder level's sample prefix.
// Their values are known exactly — only WHICH of them a predicate matches is
// unknown — so "at most t hidden matches" bounds the hidden matched sum by
// the sum of the t largest (resp. smallest) unsampled values. The fine view
// carries that bound per value band; the coarse view is the same bound
// unstratified (tighter when the count slack, not value placement,
// dominates). Intervals intersect both.
type levelTail struct {
	fine   []bandTail
	coarse bandTail
}

// bandTail is the hidden-mass summary of one value band at one level.
type bandTail struct {
	topPre []float64 // topPre[t] = sum of the t largest unsampled values
	botPre []float64 // botPre[t] = sum of the t smallest unsampled values
	pos    int       // strictly positive unsampled values
	neg    int       // strictly negative unsampled values
	kb     int       // sampled rows of this band at this level
	nb     int       // total rows of this band
}

// Estimator produces influence intervals for predicates at increasing
// sample fractions. It is immutable after construction and safe for
// concurrent use by every worker of a parallel search.
type Estimator struct {
	scorer  *influence.Scorer
	tab     *relation.Table
	kind    deltaKind
	lambda  float64
	c       float64
	epsilon float64
	conf    float64
	nLevels int
	out     []groupSample
	hold    []groupSample
	// logB = ln(3/δ) and logZ = ln(1/δ) for the per-statistic budget δ.
	logB, logZ float64
}

// Supported reports whether the task's influence can be interval-estimated:
// its aggregate's Δ is linear in the matched rows (SUM or COUNT).
func Supported(task *influence.Task) bool {
	if task == nil {
		return false
	}
	switch task.Agg.(type) {
	case aggregate.Sum, aggregate.Count:
		return true
	}
	return false
}

// New builds an Estimator over the scorer's task, or nil when the task is
// unsupported or Epsilon is not positive — callers fall back to the exact
// path on nil. No served request builds one: New survives only for the
// benchmark ladder's estimate.* lane (naive.Params.Estimator), and the
// package goes once that lane is dropped.
func New(scorer *influence.Scorer, p Params) *Estimator {
	task := scorer.Task()
	if p.Epsilon <= 0 || !Supported(task) {
		return nil
	}
	if p.Confidence <= 0 || p.Confidence >= 1 {
		p.Confidence = DefaultConfidence
	}
	fractions := p.Fractions
	if len(fractions) == 0 {
		fractions = defaultFractions
	}
	minRows := p.MinRows
	if minRows <= 0 {
		minRows = defaultMinRows
	}
	tab := task.Table.Data()
	gen := p.Gen
	if gen == 0 {
		gen = int64(tab.NumRows())
	}
	e := &Estimator{
		scorer:  scorer,
		tab:     tab,
		lambda:  task.Lambda,
		c:       task.C,
		epsilon: p.Epsilon,
		conf:    p.Confidence,
		nLevels: len(fractions),
	}
	if _, ok := task.Agg.(aggregate.Count); ok {
		e.kind = kindCount
	}
	var aggVals []float64
	if e.kind == kindSum && task.AggCol >= 0 {
		aggVals = tab.Floats(task.AggCol)
	}
	build := func(g influence.Group, dir float64) groupSample {
		return newGroupSample(g, dir, aggVals, gen, fractions, minRows)
	}
	for _, g := range task.Outliers {
		e.out = append(e.out, build(g, float64(g.Direction)))
	}
	for _, g := range task.HoldOuts {
		// Hold-outs carry dir = 1: the penalty takes |inf|, so the sign is
		// folded in by PenaltyInterval, not the per-group direction.
		e.hold = append(e.hold, build(g, 1))
	}
	// Bonferroni: each group-level uses 2 count statistics (upper + lower)
	// per value band plus 2 for the unstratified view, and SUM additionally
	// spends 2 per band on the masked-value mean (the Bernstein sum bound).
	// COUNT has no value bands, so it pays for the coarse pair only.
	statsPerGL := 2
	if aggVals != nil {
		statsPerGL = 2*(nBands+1) + 2*nBands
	}
	nStats := statsPerGL * (len(e.out) + len(e.hold)) * e.nLevels
	delta := (1 - e.conf) / float64(nStats)
	e.logB = math.Log(3 / delta)
	e.logZ = math.Log(1 / delta)
	return e
}

// newGroupSample shuffles a group's rows under its deterministic
// per-(generation, group) seed and precomputes the ladder sizes and the
// population value range.
func newGroupSample(g influence.Group, dir float64, aggVals []float64, gen int64, fractions []float64, minRows int) groupSample {
	gs := groupSample{dir: dir, rows: make([]int, 0, g.Rows.Count())}
	g.Rows.ForEach(func(r int) { gs.rows = append(gs.rows, r) })
	gs.n = len(gs.rows)
	rng := rand.New(rand.NewSource(sample.GroupSeed(gen, g.Key)))
	rng.Shuffle(gs.n, func(i, j int) { gs.rows[i], gs.rows[j] = gs.rows[j], gs.rows[i] })
	if aggVals != nil {
		gs.vals = make([]float64, gs.n)
		for i, r := range gs.rows {
			gs.vals[i] = aggVals[r]
		}
	}
	gs.levels = make([]int, len(fractions))
	for i, f := range fractions {
		k := int(math.Ceil(f * float64(gs.n)))
		if k < minRows {
			k = minRows
		}
		if k > gs.n {
			k = gs.n
		}
		gs.levels[i] = k
	}
	if gs.vals != nil {
		// Value bands: rank the shuffled indices by value and split the
		// ranking into nBands contiguous chunks, so band b+1's every value
		// is >= band b's.
		order := make([]int, gs.n)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return gs.vals[order[a]] < gs.vals[order[b]] })
		gs.bandID = make([]uint8, gs.n)
		gs.bandMin = make([]float64, nBands)
		gs.bandMax = make([]float64, nBands)
		for b := range gs.bandMin {
			gs.bandMin[b] = math.Inf(1)
			gs.bandMax[b] = math.Inf(-1)
		}
		for rank, idx := range order {
			b := rank * nBands / gs.n
			gs.bandID[idx] = uint8(b)
			v := gs.vals[idx]
			if v < gs.bandMin[b] {
				gs.bandMin[b] = v
			}
			if v > gs.bandMax[b] {
				gs.bandMax[b] = v
			}
		}
		gs.tails = make([]levelTail, len(gs.levels))
		for li, k := range gs.levels {
			if k >= gs.n {
				continue
			}
			lt := levelTail{fine: make([]bandTail, nBands)}
			for i := 0; i < gs.n; i++ {
				bt := &lt.fine[gs.bandID[i]]
				bt.nb++
				if i < k {
					bt.kb++
				}
			}
			buckets := make([][]float64, nBands)
			rest := make([]float64, 0, gs.n-k)
			for i := k; i < gs.n; i++ {
				b := gs.bandID[i]
				buckets[b] = append(buckets[b], gs.vals[i])
				rest = append(rest, gs.vals[i])
			}
			for b := range lt.fine {
				fillTail(&lt.fine[b], buckets[b])
			}
			lt.coarse = bandTail{kb: k, nb: gs.n}
			fillTail(&lt.coarse, rest)
			gs.tails[li] = lt
		}
	}
	return gs
}

// fillTail sorts a band's unsampled values and precomputes both prefix-sum
// directions plus the sign counts the greedy allocation needs.
func fillTail(bt *bandTail, vals []float64) {
	sort.Float64s(vals)
	m := len(vals)
	bt.topPre = make([]float64, m+1)
	bt.botPre = make([]float64, m+1)
	for t := 1; t <= m; t++ {
		bt.botPre[t] = bt.botPre[t-1] + vals[t-1]
		bt.topPre[t] = bt.topPre[t-1] + vals[m-t]
	}
	for _, v := range vals {
		if v > 0 {
			bt.pos++
		} else if v < 0 {
			bt.neg++
		}
	}
}

// Epsilon returns the per-rank error budget the Estimator was built with.
func (e *Estimator) Epsilon() float64 { return e.epsilon }

// Confidence returns the resolved interval coverage target.
func (e *Estimator) Confidence() float64 { return e.conf }

// Levels returns the refinement-ladder depth.
func (e *Estimator) Levels() int { return e.nLevels }

// groupInterval scans the group's level-th sample prefix for p and bounds
// the group's influence dir·Δ/|p(g)|^c.
//
// The true matched count is m = cnt + t, where cnt is observed in the sample
// and t is the unknown number of matches hiding among the n−k unsampled
// rows. Only t is probabilistic: its range comes from inverting tail bounds
// on the sampled count (binomial tails dominate the without-replacement
// hypergeometric). Given t, the matched sum is bracketed deterministically
// by the sums of the t largest / smallest unsampled values — order
// statistics precomputed in restTail — and the interval maximizes
// dir·s/max(1, cnt+t)^c jointly over t, so a large hidden mass cannot dodge
// its own selectivity penalty.
func (e *Estimator) groupInterval(g *groupSample, p predicate.Predicate, level int) Interval {
	k := g.levels[level]
	var cnts [nBands]int
	var bsum, bsq [nBands]float64
	cnt := 0
	var sumZ float64
	if g.vals == nil {
		for i := 0; i < k; i++ {
			if p.Match(e.tab, g.rows[i]) {
				cnt++
			}
		}
		sumZ = float64(cnt)
	} else {
		for i := 0; i < k; i++ {
			if p.Match(e.tab, g.rows[i]) {
				cnt++
				b := g.bandID[i]
				v := g.vals[i]
				cnts[b]++
				bsum[b] += v
				bsq[b] += v * v
				sumZ += v
			}
		}
	}
	if k == g.n {
		v := e.scaled(g.dir, sumZ, float64(cnt))
		return Interval{Lo: v, Hi: v}
	}
	if g.vals == nil {
		// COUNT: Δ = m = cnt + t, so dir·m^(1−c) with a jump at m = 0; the
		// pieces are monotone in t, so the extremes lie at {tLo, tHi, m=1}.
		tLo, tHi := e.countBounds(cnt, k, g.n)
		lo, hi := math.Inf(1), math.Inf(-1)
		add := func(t int) {
			m := float64(cnt + t)
			v := e.scaled(g.dir, m, m)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		add(tLo)
		add(tHi)
		if t1 := 1 - cnt; t1 > tLo && t1 < tHi {
			add(t1)
		}
		return Interval{Lo: lo, Hi: hi}
	}
	lt := &g.tails[level]
	iv := e.tailSweep(g.dir, sumZ, cnt, []*bandTail{&lt.coarse}, []int{cnt})
	fine := make([]*bandTail, nBands)
	fcnts := make([]int, nBands)
	for b := range lt.fine {
		fine[b] = &lt.fine[b]
		fcnts[b] = cnts[b]
	}
	ivf := e.tailSweep(g.dir, sumZ, cnt, fine, fcnts)
	ivb := e.bandSumInterval(g, lt, cnts[:], bsum[:], bsq[:], sumZ, cnt, k)
	// All three views hold at their own budget; the intersection is the bound.
	return Interval{
		Lo: math.Max(iv.Lo, math.Max(ivf.Lo, ivb.Lo)),
		Hi: math.Min(iv.Hi, math.Min(ivf.Hi, ivb.Hi)),
	}
}

// bandSumInterval is the third view: within each band, the masked value
// y_i = v_i·1[p matches row i] over the band's sampled rows estimates the
// band's TOTAL matched sum directly — empirical Bernstein with the band's
// value range as the range constant, so a band of near-equal values
// contributes almost no slack regardless of how uncertain its matched count
// is. Each band's hidden mass is the tighter of this and its order-statistic
// bracket; the denominator takes the per-band count brackets (intersected
// with the unstratified one) adversarially per sign.
func (e *Estimator) bandSumInterval(g *groupSample, lt *levelTail, cnts []int, bsum, bsq []float64, sumZ float64, cnt, k int) Interval {
	nLo, nHi := sumZ, sumZ
	tTotLo, tTotHi := 0, 0
	for b := range lt.fine {
		bt := &lt.fine[b]
		tLo, tHi := e.countBounds(cnts[b], bt.kb, bt.nb)
		tTotLo += tLo
		tTotHi += tHi
		hidHi := bt.topPre[clampInt(bt.pos, tLo, tHi)]
		hidLo := bt.botPre[clampInt(bt.neg, tLo, tHi)]
		if bt.kb > 1 && bt.kb < bt.nb {
			fk := float64(bt.kb)
			mean := bsum[b] / fk
			vr := math.Max(0, bsq[b]/fk-mean*mean) * fk / (fk - 1)
			r := math.Max(g.bandMax[b], 0) - math.Min(g.bandMin[b], 0)
			h := math.Sqrt(2*vr*e.logB/fk) + 3*r*e.logB/fk
			nb := float64(bt.nb)
			hidHi = math.Min(hidHi, nb*(mean+h)-bsum[b])
			hidLo = math.Max(hidLo, nb*(mean-h)-bsum[b])
		}
		nHi += hidHi
		nLo += hidLo
	}
	if ctLo, ctHi := e.countBounds(cnt, k, g.n); true {
		tTotLo = max(tTotLo, ctLo)
		tTotHi = min(tTotHi, ctHi)
		if tTotHi < tTotLo {
			tTotHi = tTotLo
		}
	}
	dLo := math.Pow(math.Max(1, float64(cnt+tTotLo)), e.c)
	dHi := math.Pow(math.Max(1, float64(cnt+tTotHi)), e.c)
	uLo, uHi := g.dir*nLo, g.dir*nHi
	if uLo > uHi {
		uLo, uHi = uHi, uLo
	}
	var iv Interval
	if uHi >= 0 {
		iv.Hi = uHi / dLo
	} else {
		iv.Hi = uHi / dHi
	}
	if uLo >= 0 {
		iv.Lo = uLo / dHi
	} else {
		iv.Lo = uLo / dLo
	}
	return iv
}

func clampInt(v, a, b int) int {
	if v < a {
		return a
	}
	if v > b {
		return b
	}
	return v
}

// scaled is the exact influence form dir·Δ/max(1,m)^c (Δ = 0 ⇒ 0).
func (e *Estimator) scaled(dir, delta, m float64) float64 {
	if e.c == 0 {
		return dir * delta
	}
	return dir * delta / math.Pow(math.Max(1, m), e.c)
}

// countBounds brackets one band's hidden match count t given cnt observed
// matches among the kb sampled of its nb rows.
//
// Upper: invert the lower Chernoff tail of the sampled count —
// P(Binom(kb, m/nb) ≤ cnt) ≤ exp(−(μ−cnt)²/2μ) at μ = kb·m/nb, so with
// probability ≥ 1−δ, μ ≤ cnt + ln(1/δ) + sqrt(ln(1/δ)² + 2·cnt·ln(1/δ)); at
// cnt = 0 the exact miss probability (1−m/nb)^kb ≤ e^(−μ) is tighter.
// Lower: empirical Bernstein on the 0/1 match indicator (and the cnt
// matched rows seen certainly exist). Binomial tails dominate the
// without-replacement hypergeometric, so both transfer.
func (e *Estimator) countBounds(cnt, kb, nb int) (tLo, tHi int) {
	if kb == 0 {
		return 0, nb
	}
	if kb == nb {
		return 0, 0
	}
	n, fk, fcnt := float64(nb), float64(kb), float64(cnt)
	muHi := fcnt + e.logZ + math.Sqrt(e.logZ*e.logZ+2*fcnt*e.logZ)
	if cnt == 0 {
		muHi = e.logZ
	}
	mHi := math.Min(n, n*muHi/fk)
	pHat := fcnt / fk
	vInd := pHat * (1 - pHat) * fk / math.Max(1, fk-1)
	hInd := math.Sqrt(2*vInd*e.logB/fk) + 3*e.logB/fk
	mLo := math.Max(fcnt, n*(pHat-hInd))
	tLo = int(math.Ceil(mLo-1e-9)) - cnt
	if tLo < 0 {
		tLo = 0
	}
	tHi = int(math.Floor(mHi+1e-9)) - cnt
	if tHi > nb-kb {
		tHi = nb - kb
	}
	if tHi < tLo {
		tHi = tLo
	}
	return tLo, tHi
}

// tailSweep bounds dir·s/max(1, cnt+t)^c over the total hidden-match count
// t = Σ_b t_b, with each band's t_b bracketed by countBounds and its hidden
// sum bracketed by the band's order statistics. bands are value-ascending
// (every value in band b+1 >= every value in band b), so the maximal hidden
// sum for a given total t allocates greedily from the top band down (and
// the minimal from the bottom band up) — making the numerator extremes
// concave/convex in t, exact at segment endpoints plus the single point
// where the greedy marginal changes sign. The denominator varies at most
// 1.25× per segment, bounding the sweep's slack at 1.25^c.
func (e *Estimator) tailSweep(dir, sumZ float64, cnt int, bands []*bandTail, cnts []int) Interval {
	nb := len(bands)
	tLo := make([]int, nb)
	tHi := make([]int, nb)
	tLoTot, tHiTot := 0, 0
	tPos, tNeg := 0, 0
	for b, bt := range bands {
		tLo[b], tHi[b] = e.countBounds(cnts[b], bt.kb, bt.nb)
		tLoTot += tLo[b]
		tHiTot += tHi[b]
		if extra := min(tHi[b], bt.pos) - tLo[b]; extra > 0 {
			tPos += extra
		}
		if extra := min(tHi[b], bt.neg) - tLo[b]; extra > 0 {
			tNeg += extra
		}
	}
	tPos += tLoTot
	tNeg += tLoTot
	fMax := func(t int) float64 {
		rem := t - tLoTot
		s := sumZ
		for b := nb - 1; b >= 0; b-- {
			take := tLo[b]
			if rem > 0 {
				extra := min(rem, tHi[b]-tLo[b])
				take += extra
				rem -= extra
			}
			s += bands[b].topPre[take]
		}
		return s
	}
	fMin := func(t int) float64 {
		rem := t - tLoTot
		s := sumZ
		for b := 0; b < nb; b++ {
			take := tLo[b]
			if rem > 0 {
				extra := min(rem, tHi[b]-tLo[b])
				take += extra
				rem -= extra
			}
			s += bands[b].botPre[take]
		}
		return s
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	seg := func(a, b int) {
		sHi := math.Max(fMax(a), fMax(b))
		if tPos > a && tPos < b {
			sHi = math.Max(sHi, fMax(tPos))
		}
		sLo := math.Min(fMin(a), fMin(b))
		if tNeg > a && tNeg < b {
			sLo = math.Min(sLo, fMin(tNeg))
		}
		dLo := math.Pow(math.Max(1, float64(cnt+a)), e.c)
		dHi := math.Pow(math.Max(1, float64(cnt+b)), e.c)
		uLo, uHi := dir*sLo, dir*sHi
		if uLo > uHi {
			uLo, uHi = uHi, uLo
		}
		if uHi >= 0 {
			hi = math.Max(hi, uHi/dLo)
		} else {
			hi = math.Max(hi, uHi/dHi)
		}
		if uLo >= 0 {
			lo = math.Min(lo, uLo/dHi)
		} else {
			lo = math.Min(lo, uLo/dLo)
		}
	}
	for a := tLoTot; ; {
		b := a + (cnt+a)/4 + 1
		if b > tHiTot {
			b = tHiTot
		}
		seg(a, b)
		if b == tHiTot {
			break
		}
		a = b + 1
	}
	return Interval{Lo: lo, Hi: hi}
}

// OutlierInterval bounds the mean outlier influence (1/|O|)Σ_o inf(o,p,v_o)
// at the given ladder level — the λ-free quantity MC's pruning compares. It
// reads only the outlier strata, so a candidate whose upper bound already
// fails the frontier is rejected without touching a single hold-out row.
func (e *Estimator) OutlierInterval(p predicate.Predicate, level int) Interval {
	var lo, hi float64
	for i := range e.out {
		g := &e.out[i]
		iv := e.groupInterval(g, p, level)
		lo += iv.Lo
		hi += iv.Hi
	}
	n := float64(len(e.out))
	return Interval{Lo: lo / n, Hi: hi / n}
}

// PenaltyInterval bounds the hold-out penalty max_h |inf(h, p)| at the given
// ladder level. Without hold-outs it is exactly [0,0].
func (e *Estimator) PenaltyInterval(p predicate.Predicate, level int) Interval {
	var pen Interval
	for i := range e.hold {
		g := &e.hold[i]
		iv := e.groupInterval(g, p, level)
		absLo := 0.0
		if iv.Lo > 0 || iv.Hi < 0 {
			absLo = math.Min(math.Abs(iv.Lo), math.Abs(iv.Hi))
		}
		absHi := math.Max(math.Abs(iv.Lo), math.Abs(iv.Hi))
		pen.Lo = math.Max(pen.Lo, absLo)
		pen.Hi = math.Max(pen.Hi, absHi)
	}
	return pen
}

// Influence bounds the full objective λ·outMean − (1−λ)·holdPenalty at the
// given ladder level.
func (e *Estimator) Influence(p predicate.Predicate, level int) Interval {
	out := e.OutlierInterval(p, level)
	pen := e.PenaltyInterval(p, level)
	return Interval{
		Lo: e.lambda*out.Lo - (1-e.lambda)*pen.Hi,
		Hi: e.lambda*out.Hi - (1-e.lambda)*pen.Lo,
	}
}

// Score runs the refinement ladder for p against a top-k frontier threshold:
// at each level it first bounds the objective from above using the outlier
// strata alone (the penalty is never negative), pruning the candidate the
// moment that bound falls below the threshold; a candidate whose interval
// separates ABOVE the threshold stops refining early and escalates to the
// exact scorer, as does one still ambiguous after the last level.
//
// The second return is true when the candidate was pruned (the first is
// then its final upper bound); otherwise the first return is the exact
// influence and the candidate counts as escalated. A threshold of
// -Inf (frontier not yet full) always escalates.
func (e *Estimator) Score(p predicate.Predicate, threshold float64) (float64, bool) {
	if !math.IsInf(threshold, -1) {
		for level := 0; level < e.nLevels; level++ {
			out := e.OutlierInterval(p, level)
			if upper := e.lambda * out.Hi; upper < threshold {
				return upper, true
			}
			// The penalty term only subtracts, so the early-escalate test
			// below can pass only if the outlier side alone clears the
			// threshold; checking that first skips the hold-out scan (the
			// bulk of a level's cost) for every candidate not at the
			// frontier, without changing a single ladder decision.
			if e.lambda*out.Lo > threshold {
				pen := e.PenaltyInterval(p, level)
				if e.lambda*out.Lo-(1-e.lambda)*pen.Hi > threshold {
					break
				}
			}
		}
	}
	return e.scorer.Influence(p), false
}
