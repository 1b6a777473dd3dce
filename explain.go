package scorpion

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/merge"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/partition/dt"
	"github.com/scorpiondb/scorpion/internal/partition/mc"
	"github.com/scorpiondb/scorpion/internal/partition/naive"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/shard"
)

// Algorithm selects the predicate search strategy.
type Algorithm int

const (
	// Auto picks the best algorithm for the aggregate's properties:
	// MC for independent anti-monotonic aggregates whose data passes
	// check(D), DT for independent aggregates, NAIVE otherwise.
	Auto Algorithm = iota
	// Naive is the exhaustive §4.2 search (any aggregate).
	Naive
	// DT is the §6.1 regression-tree partitioner (independent aggregates).
	DT
	// MC is the §6.2 bottom-up search (independent, anti-monotonic).
	MC
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case Naive:
		return "naive"
	case DT:
		return "dt"
	case MC:
		return "mc"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Request describes one explanation task.
type Request struct {
	// Table is the input relation D.
	Table *Table
	// SQL is the aggregate query (single table, one aggregate, GROUP BY).
	SQL string
	// Outliers lists the group keys the user flagged as anomalous. Keys of
	// multi-column GROUP BYs join the rendered values with "\x1f".
	Outliers []string
	// HoldOuts lists the group keys that must stay unchanged. When empty
	// and AllOthersHoldOut is set, every unflagged group is a hold-out.
	HoldOuts []string
	// AllOthersHoldOut treats every non-outlier group as a hold-out.
	AllOthersHoldOut bool
	// Direction is the error vector applied to all outliers (TooHigh or
	// TooLow). Use Directions for per-key control.
	Direction Direction
	// Directions optionally overrides Direction per outlier key.
	Directions map[string]Direction
	// Attributes restricts the explanation search space; empty means all
	// of A_rest (every attribute neither grouped nor aggregated).
	Attributes []string
	// Lambda is the outlier/hold-out trade-off (§3.2). A zero value means
	// DefaultLambda; to request an explicit λ = 0 (all weight on hold-out
	// stability, a legal §3.2 setting), use SetLambda, which records
	// explicitness so the zero is honored.
	Lambda float64
	// C is the §7 influence/selectivity knob. A zero value means DefaultC;
	// to request an explicit c = 0 (influence unscaled by predicate
	// cardinality), use SetC. Lower values favor broad predicates, higher
	// values selective ones.
	C float64
	// lambdaSet / cSet mark Lambda / C as explicitly set — the
	// resolved-defaults step that lets a legal zero survive to the scorer
	// instead of being mistaken for "unset".
	lambdaSet bool
	cSet      bool
	// Algorithm forces a specific search strategy.
	Algorithm Algorithm
	// Workers sets the worker-pool size of NAIVE's grid search (the
	// parallelization §8.3.2 leaves to future work), which fans out
	// predicate scoring. DT and MC score every box through one lattice on
	// one goroutine, so Plan resolves an unsharded DT or MC request to one
	// worker, the grant a server admits it with; an Auto request keeps its
	// ask, as its algorithm is chosen after admission. Shards fan out over
	// the budget whatever the algorithm. 0 or 1 runs serially; a negative
	// value uses GOMAXPROCS. Parallel runs return the same explanations as
	// serial runs.
	Workers int
	// Shards fans the search across horizontal slices of the table: the
	// table is cut into (at most) Shards contiguous zero-copy views,
	// group-aware — cut points follow the outlier provenance quantiles —
	// the chosen algorithm runs per shard against that shard's rows only
	// (sharing the Workers budget, the context, and one best-so-far board,
	// tagged per shard), and the shards' candidates are deduped, re-scored
	// exactly on the full table, and merged. 1 disables sharding; 0 (the
	// default) picks automatically from the table size and worker budget —
	// small tables never shard. Negative values are rejected.
	//
	// Shard-local scores are estimates (each shard sees only its slice of
	// every group), so mid-search Progress numbers can differ from an
	// unsharded run's; the final ranking is exact. See the README's
	// "Sharded search" section for determinism caveats.
	Shards int
	// ShardDispatch, when non-nil, offers each shard search of a sharded
	// run to a remote worker fleet (see internal/dispatch) before running
	// it locally. Only the grid algorithms (NAIVE, MC) dispatch; DT, and
	// every shard whose dispatch fails, runs locally. Because the
	// coordinator's post-processing and combiner are identical for both
	// paths, remote and local runs return identical results.
	ShardDispatch ShardDispatcher
	// TopK bounds the returned explanations (default 5).
	TopK int
	// Bins is the number of equi-width ranges per continuous attribute in
	// the clause grid NAIVE and MC search; 0 means the paper's 15, and at
	// most 1,024 are accepted. DT splits on the data and has no grid.
	Bins int

	// OnProgress, when non-nil, is invoked periodically while the search
	// runs with a best-so-far snapshot: elapsed time, scorer calls, and the
	// top candidates published so far. It is called from a monitor
	// goroutine (never after ExplainContext returns) and must not block for
	// long — the async job service uses it to answer polls mid-search.
	OnProgress func(Progress)
	// ProgressInterval is the OnProgress sampling period; 0 means 200ms.
	ProgressInterval time.Duration
}

// SetLambda sets the λ trade-off, honoring explicit zeros: unlike a plain
// field write, SetLambda(0) resolves to 0 (all weight on hold-outs)
// rather than DefaultLambda.
func (r *Request) SetLambda(v float64) {
	r.Lambda = v
	r.lambdaSet = true
}

// SetC sets the §7 c knob, honoring explicit zeros: unlike a plain field
// write, SetC(0) resolves to 0 (Δ unscaled by |p(g)|) rather than
// DefaultC.
func (r *Request) SetC(v float64) {
	r.C = v
	r.cSet = true
}

// Explanation is one ranked answer.
type Explanation struct {
	// Predicate filters the tuples that explain the outliers.
	Predicate Predicate
	// Where is the predicate rendered as a SQL-ish condition with
	// dictionary values resolved.
	Where string
	// Influence is inf(O, H, p, V), the ranking objective.
	Influence float64
	// MatchedOutlierTuples is |p(g_O)|; Result.MatchedRows lists the rows.
	MatchedOutlierTuples int
	// HoldOutPenalty is max_h |inf(h, p)|.
	HoldOutPenalty float64
	// InfluencesHoldOut marks explanations that perturb a hold-out result.
	InfluencesHoldOut bool
}

// Progress is a best-so-far snapshot of a running search, delivered to
// Request.OnProgress. Snapshots are monotone: BestScore never decreases
// across deliveries, and Version increases whenever Best changed.
type Progress struct {
	// Elapsed is the wall-clock time since the search started.
	Elapsed time.Duration
	// ScorerCalls counts influence evaluations so far.
	ScorerCalls int64
	// Best holds the current best-so-far predicates (descending influence,
	// capped at the request's TopK). Scores are the search's estimates; the
	// final Result re-scores exactly.
	Best []BestSoFar
	// Shards holds per-shard best-so-far snapshots when the search runs
	// sharded (Request.Shards), in shard order; nil otherwise. Shard scores
	// are window-local estimates.
	Shards []ShardProgress
	// Version changes whenever Best improved since the previous snapshot —
	// including any shard's local improvement on a sharded search; pollers
	// can use it to skip unchanged states.
	Version int64
}

// ShardProgress is one shard's best-so-far inside a Progress snapshot.
type ShardProgress struct {
	// Shard is the shard tag ("shard-0", "shard-1", ...).
	Shard string `json:"shard"`
	// Best holds the shard's current best predicates (local estimates).
	Best []BestSoFar `json:"best"`
}

// BestSoFar is one partial-result predicate inside a Progress snapshot.
type BestSoFar struct {
	// Where is the predicate rendered against the request's table.
	Where string `json:"where"`
	// Influence is the search's running score estimate.
	Influence float64 `json:"influence"`
}

// Stats reports search-cost counters.
type Stats struct {
	// Algorithm is the strategy actually used.
	Algorithm Algorithm
	// Duration is the end-to-end search time.
	Duration time.Duration
	// ScorerCalls counts (group × predicate) influence evaluations.
	ScorerCalls int64
	// Candidates counts the deduped, exact-scored candidate pool the
	// explanations were cut from (at least len(Explanations)).
	Candidates int
	// Shards is the number of horizontal slices the search ran across
	// (1 = unsharded).
	Shards int
	// ReusedPartition reports that the search skipped re-partitioning by
	// reusing a Session's cached DT partitioning (§8.3.3) — the c-sweep
	// fast path. Always false for one-shot Explain calls.
	ReusedPartition bool
	// Refreshed reports that the result came from a Session's warm path:
	// after an append, the previous run's candidates were re-scored exactly
	// against the grown table (per-group aggregate states advanced
	// incrementally from the appended tail) instead of re-running the
	// search. Always false for one-shot Explain calls.
	Refreshed bool
	// Interrupted reports that the search was cut short by context
	// cancellation or deadline; Explanations hold the best predicates
	// found up to that point.
	Interrupted bool
	// InterruptReason is the context error message ("context canceled",
	// "context deadline exceeded") when Interrupted.
	InterruptReason string
}

// Result is the outcome of Explain.
type Result struct {
	// Explanations are ranked by descending influence.
	Explanations []Explanation
	// Stats reports cost counters.
	Stats Stats
	// QueryResult is the executed aggregate query with provenance.
	QueryResult *query.Result

	task *influence.Task // the labelled groups the explanations were scored on
}

// Explain runs the full Scorpion pipeline: execute the query, resolve the
// flagged groups through provenance, and search for the most influential
// predicates. It is ExplainContext with a background context.
func Explain(req *Request) (*Result, error) {
	return ExplainContext(context.Background(), req)
}

// ExplainContext is Explain under a context: the search checks ctx
// periodically in its inner loops and stops early once it is cancelled or
// its deadline passes.
//
// On cancellation mid-search, ExplainContext returns BOTH a non-nil partial
// Result — the best explanations found so far, with Stats.Interrupted set
// and Stats.InterruptReason carrying the context error — AND a non-nil
// error wrapping ctx.Err(), so errors.Is(err, context.DeadlineExceeded)
// and errors.Is(err, context.Canceled) work. Callers that can use partial
// answers should check the Result before discarding it on error.
//
// Request.Workers sizes the worker pool NAIVE fans out over (DT and MC run
// on one goroutine); parallel searches return the same explanations as
// serial ones. It is a one-shot run of the Session spine that retains
// nothing.
func ExplainContext(ctx context.Context, req *Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := req.Plan()
	if err != nil {
		return nil, err
	}
	return (*Session)(nil).run(ctx, p, 0)
}

// memoDelta returns a func reporting the scorer's selection-memo hits and
// misses since the call: the one run's share of a scorer a session keeps across
// runs.
func memoDelta(scorer *influence.Scorer) func() (hits, misses int64) {
	hits0, misses0 := scorer.MemoStats()
	return func() (int64, int64) {
		hits, misses := scorer.MemoStats()
		return hits - hits0, misses - misses0
	}
}

// recordSearchMetrics publishes one finished search's counters into the
// request's registry (no-op when telemetry is off). Totals are the run's
// deltas; memo stats fold in the hit-rate signal without touching the
// registry from the scoring hot path.
func recordSearchMetrics(reg *obs.Registry, algo Algorithm, st Stats, memo func() (hits, misses int64)) {
	if reg == nil {
		return
	}
	label := []string{"algorithm", algo.String()}
	reg.Counter("scorpion_search_total", label...).Inc()
	reg.Histogram("scorpion_search_seconds", nil, label...).Observe(st.Duration.Seconds())
	reg.Counter("scorpion_scorer_calls_total").Add(float64(st.ScorerCalls))
	hits, misses := memo()
	reg.Counter("scorpion_scorer_memo_hits_total").Add(float64(hits))
	reg.Counter("scorpion_scorer_memo_misses_total").Add(float64(misses))
	if st.Interrupted {
		reg.Counter("scorpion_search_interrupted_total", label...).Inc()
	}
}

// watchProgress starts the OnProgress monitor goroutine: at every
// ProgressInterval tick it samples the board (global best plus any tagged
// per-shard children) and the calls counter — a closure, so sessions can
// subtract a baseline and sharded searches can add their shard-local
// scorers — and delivers a Progress snapshot. The returned stop function
// emits one final snapshot and joins the goroutine, so OnProgress is
// never invoked after ExplainContext returns.
func watchProgress(p *Plan, calls func() int64, board *partition.Board, start time.Time) (stop func()) {
	render := func(cands []partition.Candidate) []BestSoFar {
		if len(cands) > p.topK {
			cands = cands[:p.topK]
		}
		best := make([]BestSoFar, len(cands))
		for i, c := range cands {
			best[i] = BestSoFar{Where: c.Pred.Format(p.req.Table), Influence: c.Score}
		}
		return best
	}
	emit := func() {
		// Version BEFORE content: a publish landing between the two reads
		// then yields newer content under an older version, so the next
		// tick still bumps and pollers re-read. The other order would pair
		// stale content with the new version and make pollers skip the
		// corrected snapshot forever.
		version := board.AggregateVersion()
		cands, _ := board.Snapshot()
		var shards []ShardProgress
		for _, child := range board.Children() {
			shards = append(shards, ShardProgress{Shard: child.Tag, Best: render(child.Cands)})
		}
		p.req.OnProgress(Progress{
			Elapsed:     time.Since(start),
			ScorerCalls: calls(),
			Best:        render(cands),
			Shards:      shards,
			Version:     version,
		})
	}
	done := make(chan struct{})
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		ticker := time.NewTicker(p.interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				emit()
				return
			case <-ticker.C:
				emit()
			}
		}
	}()
	return func() {
		close(done)
		<-joined
	}
}

// directionFor resolves the error vector for an outlier key: the per-key
// Directions override, else the request-wide Direction, else TooHigh.
func (r *Request) directionFor(key string) Direction {
	if d, ok := r.Directions[key]; ok {
		return d
	}
	if r.Direction == 0 {
		return TooHigh
	}
	return r.Direction
}

// ShardDispatcher turns a Plan's shard searches into a per-shard remote
// searcher for a search resolved to algo (nil when it cannot serve them).
// Implemented by internal/dispatch's peer pool; defined here so the root
// package never imports the networking layer.
type ShardDispatcher interface {
	Remote(p *Plan, algo Algorithm) shard.RemoteSearcher
}

// buildTopSearcher resolves the searcher ExplainContext drives: the plain
// algorithm searcher, or — when the request shards — a shard.Coordinator
// fanning that same algorithm across horizontal table slices. The returned
// coordinator is nil for unsharded searches.
func buildTopSearcher(p *Plan, scorer *influence.Scorer, space *predicate.Space, algo Algorithm) (partition.Searcher, *shard.Coordinator, error) {
	if p.shards > 1 {
		factory := func(sc *influence.Scorer, sp *predicate.Space, domains map[int]predicate.Domain) (partition.Searcher, error) {
			return buildSearcher(p, sc, sp, algo, domains, p.ShardTopK(algo))
		}
		// The combiner's refine pass climbs to any edge of the shard
		// searchers' grid; DT has no grid, so its lattice stays
		// candidate-derived.
		params := shard.Params{GridBins: p.Bins(algo)}
		// A worker reproduces a grid search from Bins and ShardTopK alone.
		if p.req.ShardDispatch != nil && p.Bins(algo) > 0 {
			params.Remote = p.req.ShardDispatch.Remote(p, algo)
		}
		if coord := shard.NewCoordinator(scorer, space, factory, p.shards, params); coord.NumShards() > 1 {
			return coord, coord, nil
		}
		// The planner collapsed to one slice (tiny table or concentrated
		// outliers): run unsharded.
	}
	// Unsharded NAIVE keeps at least the Plan's top-k, never fewer than
	// its own default.
	s, err := buildSearcher(p, scorer, space, algo, nil, max(p.topK, naive.DefaultTopK))
	return s, nil, err
}

// buildScorer parses, executes and labels the query.
func buildScorer(p *Plan) (*influence.Scorer, *predicate.Space, *query.Result, error) {
	req := &p.req
	q, err := query.FromSQL(req.Table, req.SQL)
	if err != nil {
		return nil, nil, nil, err
	}
	qres, err := q.Run()
	if err != nil {
		return nil, nil, nil, err
	}
	task, err := bindTask(p, q.Agg, q.AggCol, qres)
	if err != nil {
		return nil, nil, nil, err
	}

	attrs := req.Attributes
	if len(attrs) == 0 {
		attrs = q.RestAttributes()
	}
	if len(attrs) == 0 {
		return nil, nil, nil, fmt.Errorf("scorpion: no attributes available to build explanations")
	}
	space, err := predicate.NewSpace(req.Table, attrs, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		return nil, nil, nil, err
	}
	return scorer, space, qres, nil
}

// bindTask labels the groups of qres — a query result over the Plan's
// table — for the Plan: the flagged outliers, and the hold-outs (every
// other group under AllOthersHoldOut), in qres's group order.
func bindTask(p *Plan, agg aggregate.Func, aggCol int, qres *query.Result) (*influence.Task, error) {
	req := &p.req
	task := &influence.Task{
		Table:  req.Table,
		Agg:    agg,
		AggCol: aggCol,
		Lambda: p.lambda,
		C:      p.c,
	}
	task.Outliers = make([]influence.Group, 0, len(req.Outliers))
	flagged := make(map[string]bool, len(req.Outliers))
	for _, key := range req.Outliers {
		row, ok := qres.Lookup(key)
		if !ok {
			return nil, fmt.Errorf("scorpion: no query result group %q (have %v)", key, qres.Keys())
		}
		task.Outliers = append(task.Outliers, influence.Group{Key: key, Rows: row.Group, Direction: req.directionFor(key)})
		flagged[key] = true
	}
	holdKeys := req.HoldOuts
	if len(holdKeys) == 0 && req.AllOthersHoldOut {
		holdKeys = make([]string, 0, len(qres.Rows)-len(flagged))
		for _, row := range qres.Rows {
			if !flagged[row.Key] {
				holdKeys = append(holdKeys, row.Key)
			}
		}
	}
	task.HoldOuts = make([]influence.Group, 0, len(holdKeys))
	for _, key := range holdKeys {
		if flagged[key] {
			return nil, fmt.Errorf("scorpion: group %q is both outlier and hold-out", key)
		}
		row, ok := qres.Lookup(key)
		if !ok {
			return nil, fmt.Errorf("scorpion: no query result group %q", key)
		}
		task.HoldOuts = append(task.HoldOuts, influence.Group{Key: key, Rows: row.Group})
	}
	return task, nil
}

// chooseAlgorithm resolves Auto using the aggregate's properties (§5).
func chooseAlgorithm(req *Request, scorer *influence.Scorer) (Algorithm, error) {
	task := scorer.Task()
	if req.Algorithm != Auto {
		// Validate forced choices early for a clear error.
		switch req.Algorithm {
		case DT:
			if !task.Agg.Independent() {
				return 0, fmt.Errorf("scorpion: DT requires an independent aggregate; %q is not", task.Agg.Name())
			}
		case MC:
			if _, ok := task.Agg.(aggregate.AntiMonotonic); !ok || !task.Agg.Independent() {
				return 0, fmt.Errorf("scorpion: MC requires an independent anti-monotonic aggregate; %q is not", task.Agg.Name())
			}
		}
		return req.Algorithm, nil
	}
	if !task.Agg.Independent() {
		return Naive, nil
	}
	if am, ok := task.Agg.(aggregate.AntiMonotonic); ok {
		pass := true
		for _, g := range task.Outliers {
			// Project the per-tuple aggregate values through Task.Value so
			// count(*) (AggCol = -1, one 1 per tuple) feeds check(D) real
			// data. Building an empty slice there made the check vacuously
			// true: MC was auto-picked without the data ever being checked.
			vals := make([]float64, 0, g.Rows.Count())
			g.Rows.ForEach(func(r int) { vals = append(vals, task.Value(r)) })
			if !am.Check(vals) {
				pass = false
				break
			}
		}
		if pass {
			return MC, nil
		}
	}
	return DT, nil
}

// buildSearcher constructs the partition.Searcher for the chosen algorithm;
// partition.RunSearch then drives it over the request's context and worker
// budget, so all three strategies share one execution spine. domains, when
// non-nil, pins the continuous clause-grid extents (a shard-local searcher
// receives the global outlier extents so every shard enumerates the grid
// the unsharded search would), and topK is how many candidates NAIVE
// retains.
func buildSearcher(p *Plan, scorer *influence.Scorer, space *predicate.Space, algo Algorithm, domains map[int]predicate.Domain, topK int) (partition.Searcher, error) {
	switch algo {
	case Naive:
		return naive.NewSearcher(scorer, space, naive.Params{Bins: p.bins, TopK: topK, Domains: domains}), nil
	case DT:
		return &dtSearcher{scorer: scorer, space: space}, nil
	case MC:
		return mc.NewSearcher(scorer, space, mc.Params{Bins: p.bins, Domains: domains}), nil
	default:
		return nil, fmt.Errorf("scorpion: unknown algorithm %v", algo)
	}
}

// dtSearcher composes the DT partitioner with the §6.3 Merger behind the
// partition.Searcher interface. The composition lives at this layer (rather
// than in the dt package) so dt stays independent of the merger, mirroring
// the paper's partitioner/merger split. A Session's DT path hands it the
// cached partitioning and merge seeds, and reads back a freshly built
// complete partitioning from part. The whole search runs on the goroutine
// that calls Search: the pool carries only its context and best-so-far
// board. The run's pieces, merges and exact re-score all score boxes
// through one Lattice, lat, which has that one user and which the spine
// drops once the re-score is done.
type dtSearcher struct {
	scorer *influence.Scorer
	space  *predicate.Space
	part   *dt.Partitioning
	seeds  []partition.Candidate
	lat    *influence.Lattice
}

func (s *dtSearcher) Name() string { return "dt" }

// TakeLattice hands the run's lattice to the exact re-score and lets go of
// it.
func (s *dtSearcher) TakeLattice() *influence.Lattice {
	lat := s.lat
	s.lat = nil
	return lat
}

// latticeSearcher is a searcher whose boxes were scored through one
// Lattice over the request's space — DT's, MC's and the shard
// coordinator's combine — which the rank step's exact re-score takes over,
// since a lattice has one user.
type latticeSearcher interface {
	TakeLattice() *influence.Lattice
}

func (s *dtSearcher) Search(pool *partition.Pool) (*partition.Outcome, error) {
	ctx := pool.Context()
	pt := s.part
	if pt == nil {
		var err error
		if pt, err = dt.Partition(ctx, s.scorer, s.space, dt.Params{}); err != nil {
			return nil, err
		}
		if !pt.Interrupted {
			s.part = pt
		}
	}
	s.lat = s.scorer.NewLattice(s.space)
	span := obs.SpanFrom(ctx).Child("candidates")
	cands := pt.Score(ctx, s.scorer, s.lat)
	span.End()
	// The scored leaves are a valid partial answer while the merge runs.
	pool.PublishBest(cands)
	merged := merge.New(s.scorer, s.space, merge.Params{TopQuartileOnly: true}).WithPool(partition.NewPool(ctx, 1)).WithLattice(s.lat).WithAlgo("dt").MergeSeeded(cands, s.seeds)
	pool.PublishBest(merged)
	return &partition.Outcome{
		Candidates:  merged,
		Work:        int64(len(pt.OutlierLeaves) + len(pt.HoldOutLeaves)),
		Interrupted: pt.Interrupted || pool.Cancelled(),
	}, nil
}

// rescoreExact dedupes candidates, re-scores them exactly, and sorts
// descending — mutating the slice in place. The hold-out flag is
// recomputed from the exact penalty rather than copied from the search:
// partitioners set it from estimates (sampled influence, the §6.1.4
// combine step), so the search-time flag could contradict the exact
// HoldOutPenalty reported right beside it. A Session keeps the returned
// slice as the run's candidate pool. With keep set (an incremental scorer)
// it also returns each candidate's per-group selections, sels[i] belonging
// to the returned cands[i], for a warm refresh to extend; otherwise sels is
// nil, a candidate marked Exact keeps the values it carries, and the
// search's lattice, when given, scores each other candidate by its Box. No
// returned candidate is marked Exact.
func rescoreExact(scorer *influence.Scorer, lat *influence.Lattice, cands []partition.Candidate, keep bool) ([]partition.Candidate, [][]influence.Selection) {
	r := ranked{cands: partition.Dedupe(cands)}
	task := scorer.Task()
	groups := len(task.Outliers) + len(task.HoldOuts)
	var flat []influence.Selection
	if keep {
		r.sels = make([][]influence.Selection, len(r.cands))
		flat = make([]influence.Selection, len(r.cands)*groups)
	}
	for i := range r.cands {
		var outMean, holdPen float64
		var matched int
		p := r.cands[i].Pred
		exact := r.cands[i].Exact
		r.cands[i].Exact = false
		switch {
		case exact && !keep:
			continue
		case keep:
			r.sels[i] = scorer.Select(p, flat[i*groups:i*groups:(i+1)*groups])
			outMean, holdPen, matched = scorer.ScoreMatched(r.sels[i])
		case lat != nil:
			b, boxed := lat.Space().Box(p)
			outMean, holdPen, matched = lat.Parts(b, boxed, p)
		default:
			outMean, holdPen, matched = scorer.PartsMatched(p)
		}
		setScore(&r.cands[i], task.Lambda, outMean, holdPen, matched)
	}
	r.sort()
	return r.cands, r.sels
}

// setScore gives a candidate its exact objective from the two parts, and
// its |p(g_O)|.
func setScore(c *partition.Candidate, lambda, outMean, holdPen float64, matched int) {
	c.Score = lambda*outMean - (1-lambda)*holdPen
	c.HoldPenalty = holdPen
	c.InfluencesHoldOut = holdPen > 0
	c.Matched = matched
}

// ranked is a candidate list with, when kept, each candidate's selections
// and WHERE string.
type ranked struct {
	cands []partition.Candidate
	sels  [][]influence.Selection
	where []string
}

// sort orders the candidates as partition.SortByScore does, moving each
// candidate's selections and WHERE string with it.
func (r ranked) sort() {
	if r.sels == nil {
		partition.SortByScore(r.cands)
		return
	}
	sort.Stable(r)
}

func (r ranked) Len() int           { return len(r.cands) }
func (r ranked) Less(i, j int) bool { return partition.Better(r.cands[i].Score, r.cands[j].Score) }
func (r ranked) Swap(i, j int) {
	r.cands[i], r.cands[j] = r.cands[j], r.cands[i]
	r.sels[i], r.sels[j] = r.sels[j], r.sels[i]
	if r.where != nil {
		r.where[i], r.where[j] = r.where[j], r.where[i]
	}
}

// present renders the deduped, exactly-scored pool as the Plan's top-k
// ranked explanations; Stats.Candidates counts the whole pool. It does not
// mutate cands, and evaluates no predicate: the re-score counted the
// matches. A non-nil where keeps cands[i]'s WHERE string in where[i] from
// the first time it is shown ("" before), so a kept pool formats each once.
func present(p *Plan, scorer *influence.Scorer, cands []partition.Candidate, where []string, qres *query.Result) *Result {
	res := &Result{QueryResult: qres, task: scorer.Task()}
	res.Stats.Candidates = len(cands)
	if len(cands) > p.topK {
		cands = cands[:p.topK]
	}
	for i, c := range cands {
		var w string
		switch {
		case where == nil:
			w = c.Pred.Format(p.req.Table)
		case where[i] == "":
			where[i] = c.Pred.Format(p.req.Table)
			fallthrough
		default:
			w = where[i]
		}
		res.Explanations = append(res.Explanations, Explanation{
			Predicate:            c.Pred,
			Where:                w,
			Influence:            c.Score,
			MatchedOutlierTuples: c.Matched,
			HoldOutPenalty:       c.HoldPenalty,
			InfluencesHoldOut:    c.InfluencesHoldOut,
		})
	}
	return res
}
