package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/cache"
	"github.com/scorpiondb/scorpion/internal/catalog"
	"github.com/scorpiondb/scorpion/internal/dispatch"
	"github.com/scorpiondb/scorpion/internal/estimate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/jobs"
	"github.com/scorpiondb/scorpion/internal/merge"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/partition/dt"
	"github.com/scorpiondb/scorpion/internal/partition/mc"
	"github.com/scorpiondb/scorpion/internal/partition/naive"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/shard"
	"github.com/scorpiondb/scorpion/internal/sqlparse"
	"github.com/scorpiondb/scorpion/internal/stream"
	"github.com/scorpiondb/scorpion/internal/wire"
)

// The ladder times direct calls into each package's exported functions, on
// the fixture the workload's traffic ran against, one span per rung. Rungs
// on the workload's own path use its table and request. A search the
// workload does not run (NAIVE on a 60k-row table would take minutes) runs
// on a small table of the same family instead, so every rung has a number
// on every workload and the numbers of one workload stay comparable from
// commit to commit.

// ladderInput names the fixture the ladder runs on.
type ladderInput struct {
	main    *dataset
	sql     string
	algo    scorpion.Algorithm
	workers int
	shards  int
	seed    int64
	tiny    bool
}

// timing is the cost of one call, averaged over n calls.
type timing struct {
	ns, bytes, allocs float64
	n                 int
}

func (t timing) ms() float64 { return t.ns / 1e6 }

// measure calls f until budget is spent (at least twice, at most maxN
// times) and reports the mean cost of a call.
func measure(budget time.Duration, maxN int, f func()) timing {
	f() // the first call pays for lazy set-up; it is not counted
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	n := 0
	for n < 2 || (n < maxN && time.Since(start) < budget) {
		f()
		n++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return timing{
		ns:     float64(elapsed.Nanoseconds()) / float64(n),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		n:      n,
	}
}

// rungBudget is how long a cheap rung repeats its call for.
func (l *ladder) rungBudget() time.Duration {
	if l.in.tiny {
		return 2 * time.Millisecond
	}
	return 80 * time.Millisecond
}

// bound is a table with a query bound to it, labelled and ready to score.
type bound struct {
	ds     *dataset
	sql    string
	q      *query.AggregateQuery
	qres   *query.Result
	attrs  []string
	task   *influence.Task
	space  *predicate.Space
	scorer *influence.Scorer
	gO     *relation.RowSet
}

func bind(ds *dataset, sql string) (*bound, error) {
	b := &bound{ds: ds, sql: sql}
	var err error
	if b.q, err = query.FromSQL(ds.table, sql); err != nil {
		return nil, err
	}
	if b.qres, err = b.q.Run(); err != nil {
		return nil, err
	}
	b.attrs = b.q.RestAttributes()
	b.task = &influence.Task{Table: ds.table, Agg: b.q.Agg, AggCol: b.q.AggCol, Lambda: scorpion.DefaultLambda, C: scorpion.DefaultC}
	flagged := map[string]bool{}
	for _, key := range ds.outlierKeys {
		row, ok := b.qres.Lookup(key)
		if !ok {
			return nil, fmt.Errorf("ladder: no group %q", key)
		}
		b.task.Outliers = append(b.task.Outliers, influence.Group{Key: key, Rows: row.Group, Direction: influence.TooHigh})
		flagged[key] = true
	}
	for _, key := range b.qres.Keys() {
		if !flagged[key] {
			row, _ := b.qres.Lookup(key)
			b.task.HoldOuts = append(b.task.HoldOuts, influence.Group{Key: key, Rows: row.Group})
		}
	}
	if b.space, err = predicate.NewSpace(ds.table, b.attrs, nil); err != nil {
		return nil, err
	}
	if b.scorer, err = influence.NewScorer(b.task); err != nil {
		return nil, err
	}
	b.gO = shard.OutlierUnion(b.task)
	return b, nil
}

// freshScorer returns a scorer with an empty memo, so a timed search does
// not find the previous one's scores.
func (b *bound) freshScorer() *influence.Scorer {
	s, err := influence.NewScorer(b.task)
	if err != nil {
		panic(err) // bind built one from the same task
	}
	return s
}

func (b *bound) request(algo scorpion.Algorithm, workers, shards int) *scorpion.Request {
	return &scorpion.Request{
		Table: b.ds.table, SQL: b.sql, Outliers: b.ds.outlierKeys, AllOthersHoldOut: true,
		Attributes: b.attrs, Algorithm: algo, Workers: workers, Shards: shards,
	}
}

// ladder holds one run of the rungs.
type ladder struct {
	in   ladderInput
	tr   *tracer
	root *liveSpan
	out  map[string]float64
}

// rung opens the span of one ladder stage.
func (l *ladder) rung(name string) *liveSpan { return l.tr.start(l.root, name) }

// timed measures f under a span named after the rung.
func (l *ladder) timed(name string, budget time.Duration, maxN int, f func()) timing {
	sp := l.rung(name)
	t := measure(budget, maxN, f)
	sp.attr("calls", t.n)
	sp.attr("ns_per_call", t.ns)
	sp.end()
	return t
}

// medianOf runs f n times under one span and returns the median duration in
// ms; prep (if any) runs untimed before each call.
func (l *ladder) medianOf(name string, n int, prep, f func()) float64 {
	sp := l.rung(name)
	var ms []float64
	for i := 0; i < n; i++ {
		if prep != nil {
			prep()
		}
		start := time.Now()
		f()
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	sp.attr("calls", n)
	sp.end()
	return median(ms)
}

// runLadder runs every rung and returns the per-layer numbers it produced.
func runLadder(in ladderInput, tr *tracer) (map[string]float64, error) {
	l := &ladder{in: in, tr: tr, out: map[string]float64{}}
	l.root = tr.start(nil, "ladder")
	defer l.root.end()

	mainB, err := bind(in.main, in.sql)
	if err != nil {
		return nil, err
	}
	smallB := mainB
	if in.algo != scorpion.Naive {
		small, err := newDataset(smallConfig(in.seed, in.tiny))
		if err != nil {
			return nil, err
		}
		if smallB, err = bind(small, sumSQL); err != nil {
			return nil, err
		}
	}
	pick := func(algo scorpion.Algorithm) *bound {
		if in.algo == algo {
			return mainB
		}
		return smallB
	}

	ref, err := l.explainRungs(mainB)
	if err != nil {
		return nil, err
	}
	l.planRungs(mainB)
	l.predicateRungs(mainB, ref.Explanations[0].Predicate)
	if err := l.relationRungs(mainB, ref.Explanations[0].Predicate); err != nil {
		return nil, err
	}
	l.serviceRungs()
	naiveMS, err := l.naiveRungs(pick(scorpion.Naive))
	if err != nil {
		return nil, err
	}
	dtCover, err := l.dtRungs(pick(scorpion.DT))
	if err != nil {
		return nil, err
	}
	mcMS, mcOut, err := l.mcRungs(pick(scorpion.MC))
	if err != nil {
		return nil, err
	}
	shardMS, err := l.shardRungs(pick(scorpion.MC), mcOut)
	if err != nil {
		return nil, err
	}
	if err := l.remoteRung(pick(scorpion.MC)); err != nil {
		return nil, err
	}
	if err := l.sessionRungs(mainB); err != nil {
		return nil, err
	}

	// Coverage: the stages the benchmark can time from outside, summed,
	// against the library call they make up.
	front := (l.out["sqlparse.parse_ns"]/1e6 + l.out["query.run_ms"] + l.out["predicate.space_ms"] + l.out["influence.new_scorer_ms"])
	var search float64
	switch {
	case in.shards > 1:
		search = shardMS
	case in.algo == scorpion.Naive:
		search = naiveMS
	case in.algo == scorpion.MC:
		search = mcMS
	}
	if in.algo == scorpion.DT {
		l.out["bench.ladder_coverage"] = dtCover
	} else {
		l.out["bench.ladder_coverage"] = ratio(front+search+l.out["scorpion.rank_ms"], l.out["scorpion.explain_ms"])
	}
	// The scorer cannot be wrapped from outside while a search runs; its
	// share is calls x unit cost over the search span.
	l.out["influence.share_of_search"] = ratio(
		ref.calls*l.out["influence.incremental_ns_per_call"]/1e6/float64(maxInt(1, effectiveWorkers(in.workers))),
		l.out["scorpion.search_ms"])
	return l.out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func effectiveWorkers(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return maxInt(1, w)
}

// refRun is the library's answer to the workload's request.
type refRun struct {
	*scorpion.Result
	calls float64
}

// explainRungs times the workload's request as one library call, with an
// obs root span passed in so that plan, search and rank report themselves.
func (l *ladder) explainRungs(b *bound) (*refRun, error) {
	sp := l.rung("scorpion.explain")
	defer sp.end()
	var total, plan, search, rank []float64
	var last *scorpion.Result
	start := time.Now()
	for i := 0; i < 5 && (i < 2 || time.Since(start) < time.Second); i++ {
		root := obs.NewSpan("explain")
		t0 := time.Now()
		res, err := scorpion.ExplainContext(obs.ContextWithSpan(context.Background(), root), b.request(l.in.algo, l.in.workers, l.in.shards))
		root.End()
		if err != nil {
			return nil, fmt.Errorf("ladder: library explain: %w", err)
		}
		snap := root.Snapshot()
		l.tr.graftAt(sp, snap, l.tr.us(t0), l.tr.us(time.Now()))
		total = append(total, snap.DurationMS)
		for _, ph := range []struct {
			name string
			dst  *[]float64
		}{{"plan", &plan}, {"search", &search}, {"rank", &rank}} {
			if n := snap.Find(ph.name); n != nil {
				*ph.dst = append(*ph.dst, n.DurationMS)
			}
		}
		last = res
	}
	if len(last.Explanations) == 0 {
		return nil, fmt.Errorf("ladder: library explain returned no explanations")
	}
	l.out["scorpion.explain_ms"] = median(total)
	l.out["scorpion.plan_ms"] = median(plan)
	l.out["scorpion.search_ms"] = median(search)
	l.out["scorpion.rank_ms"] = median(rank)
	return &refRun{Result: last, calls: float64(last.Stats.ScorerCalls)}, nil
}

func (l *ladder) planRungs(b *bound) {
	t := l.timed("sqlparse.parse", l.rungBudget(), 1<<20, func() {
		if _, err := sqlparse.Parse(b.sql); err != nil {
			panic(err)
		}
	})
	l.out["sqlparse.parse_ns"], l.out["sqlparse.parse_allocs"] = t.ns, t.allocs
	t = l.timed("query.run", 2*l.rungBudget(), 1000, func() {
		if _, err := b.q.Run(); err != nil {
			panic(err)
		}
	})
	l.out["query.run_ms"], l.out["query.run_alloc_mb"] = t.ms(), t.bytes/(1<<20)
	l.out["query.groups"] = float64(len(b.qres.Rows))
	l.out["predicate.space_ms"] = l.timed("predicate.space", l.rungBudget(), 1000, func() {
		if _, err := predicate.NewSpace(b.ds.table, b.attrs, nil); err != nil {
			panic(err)
		}
	}).ms()
	l.out["influence.new_scorer_ms"] = l.timed("influence.new_scorer", 2*l.rungBudget(), 1000, func() { b.freshScorer() }).ms()
}

func (l *ladder) predicateRungs(b *bound, p predicate.Predicate) {
	tbl := b.ds.table
	rows := float64(tbl.NumRows())
	hits := 0
	l.out["predicate.match_ns_per_row"] = l.timed("predicate.match", l.rungBudget(), 1000, func() {
		for r := 0; r < tbl.NumRows(); r++ {
			if p.Match(tbl, r) {
				hits++
			}
		}
	}).ns / rows
	l.out["predicate.eval_ns_per_row"] = l.timed("predicate.eval", l.rungBudget(), 1000, func() { p.Eval(tbl, b.gO) }).ns / float64(b.gO.Count())
	l.out["predicate.key_ns"] = l.timed("predicate.key", l.rungBudget(), 1<<20, func() {
		q, err := predicate.New(p.Clauses()...)
		if err != nil || q.Key() == "" {
			panic("ladder: predicate did not rebuild")
		}
	}).ns

	t := l.timed("influence.incremental", l.rungBudget(), 1<<20, func() { b.scorer.OutlierInfluence(0, p) })
	l.out["influence.incremental_ns_per_call"] = t.ns
	l.out["influence.incremental_bytes_per_call"] = t.bytes
	l.out["influence.incremental_allocs_per_call"] = t.allocs
	// MEDIAN has no removable state: the scorer recomputes it from the
	// group's unmatched values, the black-box path.
	med, err := aggregate.ByName("median")
	if err != nil {
		panic(err)
	}
	task := *b.task
	task.Agg = med
	black, err := influence.NewScorer(&task)
	if err != nil {
		panic(err)
	}
	l.out["influence.blackbox_ns_per_call"] = l.timed("influence.blackbox", l.rungBudget(), 1<<20, func() { black.OutlierInfluence(0, p) }).ns
}

// batchOf returns the header and the first n data rows of the dataset's CSV.
func batchOf(ds *dataset, n int) []byte {
	end := 0
	for line := 0; line <= n; line++ {
		end += bytes.IndexByte(ds.csv[end:], '\n') + 1
	}
	return ds.csv[:end]
}

func (l *ladder) relationRungs(b *bound, p predicate.Predicate) error {
	tbl := b.ds.table
	batch := batchOf(b.ds, appendBatchRows)
	rows, err := relation.ParseCSVRows(bytes.NewReader(batch), tbl.Schema(), relation.CSVOptions{})
	if err != nil {
		return err
	}
	l.out["relation.csv_parse_ns_per_row"] = l.timed("relation.csv_parse", l.rungBudget(), 1<<20, func() {
		if _, err := relation.ParseCSVRows(bytes.NewReader(batch), tbl.Schema(), relation.CSVOptions{}); err != nil {
			panic(err)
		}
	}).ns / appendBatchRows
	app := relation.AppenderFor(tbl)
	l.out["relation.appender_ns_per_row"] = l.timed("relation.appender", l.rungBudget(), 2000, func() {
		if _, err := app.Append(rows); err != nil {
			panic(err)
		}
	}).ns / appendBatchRows

	matched := p.Eval(tbl, b.gO)
	group := b.task.Outliers[0].Rows
	l.out["relation.rowset_and_ns"] = l.timed("relation.rowset_and", l.rungBudget(), 1<<20, func() { matched.Intersect(group) }).ns
	sink := 0
	l.out["relation.rowset_foreach_ns_per_row"] = l.timed("relation.rowset_foreach", l.rungBudget(), 1<<20, func() {
		group.ForEach(func(r int) { sink += r })
	}).ns / float64(group.Count())
	var enc []byte
	l.out["relation.codec_encode_ns"] = l.timed("relation.codec_encode", l.rungBudget(), 1<<20, func() { enc = matched.AppendBinary(enc[:0]) }).ns
	l.out["relation.codec_decode_ns"] = l.timed("relation.codec_decode", l.rungBudget(), 1<<20, func() {
		if _, _, err := relation.DecodeRowSet(enc); err != nil {
			panic(err)
		}
	}).ns
	l.out["relation.codec_bytes"] = float64(len(enc))
	mem := 0
	for _, row := range b.qres.Rows {
		mem += row.Group.MemBytes()
	}
	l.out["relation.provenance_bytes_per_row"] = float64(mem) / float64(tbl.NumRows())

	cat := catalog.New()
	if _, err := cat.Add("t", tbl, "ladder"); err != nil {
		return err
	}
	l.out["catalog.append_ns_per_row"] = l.timed("catalog.append", l.rungBudget(), 2000, func() {
		if _, _, err := cat.AppendCSV("t", bytes.NewReader(batch)); err != nil {
			panic(err)
		}
	}).ns / appendBatchRows

	// Tracker.Advance reads only the tail, so the successors are built
	// first and the advances timed on their own.
	tracker, err := stream.NewTracker(tbl, b.sql)
	if err != nil {
		return err
	}
	grow := relation.AppenderFor(tbl)
	var succ []*relation.Table
	for i := 0; i < 40; i++ {
		t, err := grow.Append(rows)
		if err != nil {
			return err
		}
		succ = append(succ, t)
	}
	sp := l.rung("stream.advance")
	start := time.Now()
	for _, t := range succ {
		if _, err := tracker.Advance(t); err != nil {
			return err
		}
	}
	l.out["stream.advance_ns_per_row"] = float64(time.Since(start).Nanoseconds()) / float64(len(succ)*appendBatchRows)
	sp.end()
	return nil
}

// serviceRungs times the serving layers that need no table.
func (l *ladder) serviceRungs() {
	sched := jobs.New(jobs.Options{})
	noop := jobs.Task{Kind: "noop", Run: func(context.Context, int, func(any)) (any, error) { return nil, nil }}
	l.out["jobs.submit_ns"] = l.timed("jobs.submit", l.rungBudget(), 1<<20, func() {
		job, err := sched.Submit(noop)
		if err != nil {
			panic(err)
		}
		<-job.Done()
	}).ns
	sched.Close()

	c := cache.New(0)
	keys := make([]string, 2*cache.DefaultCapacity) // twice the capacity: half the puts evict
	for i := range keys {
		keys[i] = fmt.Sprintf("t@1|%024x", i)
	}
	i := 0
	l.out["cache.put_ns"] = l.timed("cache.put", l.rungBudget(), 1<<20, func() {
		c.Put(keys[i%len(keys)], i, 256)
		i++
	}).ns
	hot := keys[(i-1)%len(keys)]
	l.out["cache.get_ns"] = l.timed("cache.get", l.rungBudget(), 1<<20, func() {
		if _, ok := c.Get(hot); !ok {
			panic("ladder: cache lost the key it was just given")
		}
	}).ns

	const perRoot = 32 // under the 64-child cap, so every child is recorded
	l.out["obs.span_ns"] = l.timed("obs.span", l.rungBudget(), 1<<20, func() {
		root := obs.NewSpan("root")
		for k := 0; k < perRoot; k++ {
			root.Child("phase").End()
		}
		root.End()
	}).ns / (perRoot + 1)
}

func (l *ladder) naiveRungs(b *bound) (searchMS float64, err error) {
	// run searches the grid three times, each on a scorer with an empty
	// memo; epsilon > 0 takes the anytime path.
	run := func(name string, workers int, epsilon float64) (res *naive.Result, ms float64, err error) {
		var times []float64
		sp := l.rung(name)
		defer sp.end()
		for i := 0; i < 3; i++ {
			scorer := b.freshScorer()
			params := naive.Params{}
			if epsilon > 0 {
				if params.Estimator = estimate.New(scorer, estimate.Params{Epsilon: epsilon}); params.Estimator == nil {
					return nil, 0, fmt.Errorf("ladder: the estimator does not support %s", b.sql)
				}
			}
			start := time.Now()
			if res, err = naive.RunContext(context.Background(), scorer, b.space, params, workers); err != nil {
				return nil, 0, err
			}
			times = append(times, float64(time.Since(start).Nanoseconds())/1e6)
		}
		return res, median(times), nil
	}
	res, one, err := run("naive.search/workers=1", 1, 0)
	if err != nil {
		return 0, err
	}
	_, two, err := run("naive.search/workers=2", 2, 0)
	if err != nil {
		return 0, err
	}
	l.out["naive.search_ms"] = one
	l.out["naive.enumerated"] = float64(res.Enumerated)
	l.out["naive.parallel_speedup"] = ratio(one, two)

	// The anytime path on the same grid, pruning within 10% of the top score.
	ares, ams, err := run("estimate.naive", 1, 0.1*res.Best.Score)
	if err != nil {
		return 0, err
	}
	l.out["estimate.score_ns_per_call"] = ams * 1e6 / float64(ares.Enumerated)
	l.out["estimate.pruned_share"] = ratio(float64(ares.Pruned), float64(ares.Pruned+ares.Escalated))
	if effectiveWorkers(l.in.workers) > 1 {
		return two, nil
	}
	return one, nil
}

// rank re-scores candidates exactly and renders the top five, the work
// the library does after a search, rebuilt from exported pieces.
func rank(b *bound, scorer *influence.Scorer, cands []partition.Candidate) {
	cands = partition.Dedupe(append([]partition.Candidate(nil), cands...))
	for i := range cands {
		outMean, hold := scorer.Parts(cands[i].Pred)
		cands[i].Score = b.task.Lambda*outMean - (1-b.task.Lambda)*hold
	}
	partition.SortByScore(cands)
	for i := 0; i < len(cands) && i < 5; i++ {
		cands[i].Pred.Eval(b.ds.table, b.gO)
		_ = cands[i].Pred.Format(b.ds.table)
	}
}

// dtRungs times the DT partitioner once and then, at five c values, the
// three steps a session run makes on a cached partitioning (score the
// leaves, merge, rank) beside Explainer.ExplainC doing the same. c rises
// from run to run, so no run is seeded by an earlier one's merge results.
func (l *ladder) dtRungs(b *bound) (coverage float64, err error) {
	scorer := b.freshScorer()
	var pt *dt.Partitioning
	l.out["dt.partition_ms"] = l.medianOf("dt.partition", 1, nil, func() {
		pt, err = dt.PartitionContext(context.Background(), scorer, b.space, dt.Params{}, 1)
	})
	if err != nil {
		return 0, err
	}
	l.out["dt.leaves"] = float64(len(pt.OutlierLeaves) + len(pt.HoldOutLeaves))

	exp, err := scorpion.NewExplainer(b.request(scorpion.DT, 1, 1))
	if err != nil {
		return 0, err
	}
	if _, err := exp.ExplainC(0.01); err != nil { // builds the session's partitioning
		return 0, err
	}
	var candMS, mergeMS, sessMS, cover, calls, in, out []float64
	sp := l.rung("dt.session_steps")
	for _, c := range []float64{0.20, 0.21, 0.22, 0.23, 0.24} {
		if err := scorer.SetC(c); err != nil {
			return 0, err
		}
		before := scorer.Calls()
		s1 := l.tr.start(sp, "dt.candidates")
		t0 := time.Now()
		cands := pt.Candidates(scorer)
		t1 := time.Now()
		s1.end()
		s2 := l.tr.start(sp, "merge.merge")
		merged := merge.New(scorer, b.space, merge.Params{TopQuartileOnly: true, UseApproximation: scorer.Incremental()}).Merge(cands)
		t2 := time.Now()
		s2.end()
		s3 := l.tr.start(sp, "rank")
		rank(b, scorer, merged)
		t3 := time.Now()
		s3.end()
		s4 := l.tr.start(sp, "scorpion.explainc")
		if _, err := exp.ExplainC(c); err != nil {
			return 0, err
		}
		t4 := time.Now()
		s4.end()
		ms := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }
		candMS = append(candMS, ms(t0, t1))
		mergeMS = append(mergeMS, ms(t1, t2))
		sessMS = append(sessMS, ms(t3, t4))
		cover = append(cover, ratio(ms(t0, t3), ms(t3, t4)))
		calls = append(calls, float64(scorer.Calls()-before))
		in = append(in, float64(len(cands)))
		out = append(out, float64(len(merged)))
	}
	sp.end()
	l.out["dt.candidates_ms"] = median(candMS)
	l.out["merge.merge_ms"] = median(mergeMS)
	l.out["merge.scorer_calls"] = median(calls)
	l.out["merge.in_candidates"] = median(in)
	l.out["merge.out_candidates"] = median(out)
	l.out["scorpion.explainc_ms"] = median(sessMS)
	return median(cover), nil
}

func (l *ladder) mcRungs(b *bound) (float64, *partition.Outcome, error) {
	var res *mc.Result
	var err error
	var scorer *influence.Scorer
	ms := l.medianOf("mc.search", 3, func() { scorer = b.freshScorer() }, func() {
		res, err = mc.RunContext(context.Background(), scorer, b.space, mc.Params{}, 1)
	})
	if err != nil {
		return 0, nil, err
	}
	l.out["mc.search_ms"] = ms
	l.out["mc.candidates"] = float64(len(res.Candidates))
	return ms, &partition.Outcome{Candidates: res.Candidates}, nil
}

func (l *ladder) shardRungs(b *bound, outcome *partition.Outcome) (float64, error) {
	k := l.in.shards
	if k < 2 {
		k = len(b.ds.outlierKeys) + 1
	}
	tbl := b.ds.table
	l.out["shard.plan_ms"] = l.timed("shard.plan", l.rungBudget(), 1<<20, func() { shard.Plan(tbl, b.gO, k) }).ms()

	factory := func(sc *influence.Scorer, sp *predicate.Space, domains map[int]predicate.Domain) (partition.Searcher, error) {
		return mc.NewSearcher(sc, sp, mc.Params{Domains: domains}), nil
	}
	var err error
	var coord *shard.Coordinator
	ms := l.medianOf("shard.search", 3, func() {
		coord = shard.NewCoordinator(b.freshScorer(), b.space, factory, k, shard.Params{GridBins: 15})
	}, func() {
		_, err = partition.RunSearch(context.Background(), 1, coord)
	})
	if err != nil {
		return 0, err
	}
	l.out["shard.search_ms"] = ms

	groups := append(append([]influence.Group(nil), b.task.Outliers...), b.task.HoldOuts...)
	var encG []byte
	l.out["wire.groups_encode_ns"] = l.timed("wire.groups_encode", l.rungBudget(), 1<<20, func() {
		if encG, err = json.Marshal(wire.EncodeGroups(groups)); err != nil {
			panic(err)
		}
	}).ns
	l.out["wire.groups_decode_ns"] = l.timed("wire.groups_decode", l.rungBudget(), 1<<20, func() {
		var g []wire.Group
		if err := json.Unmarshal(encG, &g); err != nil {
			panic(err)
		}
		if _, err := wire.DecodeGroups(g, tbl.NumRows()); err != nil {
			panic(err)
		}
	}).ns
	var encO []byte
	l.out["wire.outcome_encode_ns"] = l.timed("wire.outcome_encode", l.rungBudget(), 1<<20, func() {
		if encO, err = json.Marshal(wire.EncodeOutcome(outcome)); err != nil {
			panic(err)
		}
	}).ns
	l.out["wire.outcome_decode_ns"] = l.timed("wire.outcome_decode", l.rungBudget(), 1<<20, func() {
		var r wire.Result
		if err := json.Unmarshal(encO, &r); err != nil {
			panic(err)
		}
		if _, err := wire.DecodeOutcome(&r); err != nil {
			panic(err)
		}
	}).ns
	return ms, nil
}

// remoteRung runs the table's sharded MC search through one loopback
// worker, so that dispatch, wire and worker have a number on every
// workload; on sharded-remote the traffic's own counters replace them.
func (l *ladder) remoteRung(b *bound) error {
	sp := l.rung("dispatch.remote")
	defer sp.end()
	wk, err := startNode(true)
	if err != nil {
		return err
	}
	defer wk.close()
	h := newHarness("ladder", l.in.tiny, time.Time{}) // it only uploads: nothing asks for its deadline
	defer h.close()
	if err := h.upload(-1, wk.url, "t", b.ds.csv); err != nil {
		return err
	}
	pool, err := dispatch.NewPool(dispatch.Options{Peers: []string{wk.url}})
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		req := b.request(scorpion.MC, 1, len(b.ds.outlierKeys)+1)
		req.ShardDispatch = pool.For("t", 1)
		if _, err := scorpion.Explain(req); err != nil {
			return err
		}
	}
	st := pool.Stats()
	if st.Succeeded == 0 || st.Fallbacks != 0 {
		return fmt.Errorf("ladder: loopback worker answered %d of %d shards", st.Succeeded, st.Dispatched)
	}
	hist := wk.srv.Registry().Histogram("scorpion_worker_shard_seconds", nil)
	l.out["dispatch.ms_per_shard"] = float64(st.DispatchNanos) / float64(st.Succeeded) / 1e6
	l.out["wire.task_bytes_per_shard"] = float64(st.BytesOut) / float64(st.Succeeded)
	l.out["wire.result_bytes_per_shard"] = float64(st.BytesIn) / float64(st.Succeeded)
	l.out["worker.search_ms"] = ratio(hist.Sum(), float64(hist.Count())) * 1e3
	return nil
}

// sessionRungs times the warm path of the Refresher on the workload's own
// table and request: one cold run, then a refresh after each append.
func (l *ladder) sessionRungs(mainB *bound) error {
	ref, err := scorpion.NewRefresher(mainB.request(l.in.algo, 1, l.in.shards))
	if err != nil {
		return err
	}
	ctx := context.Background()
	if _, _, err := ref.ExplainTable(ctx, mainB.ds.table); err != nil {
		return err
	}
	// Five batches must stay under the refresher's growth cap even on the
	// 400-row cold-naive table.
	batch := appendBatchRows
	if small := mainB.ds.table.NumRows() / 50; small < batch {
		batch = small
	}
	rows, err := relation.ParseCSVRows(bytes.NewReader(batchOf(mainB.ds, batch)), mainB.ds.table.Schema(), relation.CSVOptions{})
	if err != nil {
		return err
	}
	app := relation.AppenderFor(mainB.ds.table)
	var succ *relation.Table
	var warm bool
	ms := l.medianOf("scorpion.refresh", 5, func() {
		if succ, err = app.Append(rows); err != nil {
			panic(err)
		}
	}, func() {
		_, warm, err = ref.ExplainTable(ctx, succ)
	})
	if err != nil {
		return err
	}
	if !warm {
		return fmt.Errorf("ladder: refresher ran cold after an append (%s)", ref.FallbackReason())
	}
	l.out["scorpion.refresh_ms"] = ms
	return nil
}
