package scorpion

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/partition/dt"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/shard"
	"github.com/scorpiondb/scorpion/internal/stream"
)

// Session answers repeated explanation requests that share one query, one
// set of labels and one λ — a UI sweeping the c knob, or a client
// re-asking after an append — by keeping each run's exact-scored candidate
// pool and re-using it when only c or the data changed. Every run goes
// through the same spine as ExplainContext; what a run re-uses depends on
// the algorithm the request resolves to:
//
//   - On the generation it last planned, a request that resolves to an
//     unsharded DT search (the "DT path") re-uses the executed query, the
//     scorer's per-group states and the c-agnostic DT partitioning, and
//     seeds its merge with the pool of the smallest cached c above its own
//     (§8.3.3: lowering c only grows predicates). Stats.ReusedPartition
//     reports the reuse. From the second run on, the scorer also keeps
//     every box's per-group selections, which do not depend on c, so a run
//     re-scores the pieces and merged boxes an earlier run folded without
//     testing a row.
//   - Any other request that finds a pool at its own c re-scores that pool
//     exactly against the current data through a stream.Tracker, which
//     folds each appended tail into per-group provenance and states at
//     O(batch) cost — no query re-execution, no search (Stats.Refreshed).
//     The pool keeps each candidate's per-group selection, state(p(g)), so
//     the re-score also tests only the appended rows. Structural changes
//     fall back cold; FallbackReason names why.
//   - Every other request runs cold and stores its pool.
//
// The pool map holds at most maxCachedPools entries (one per c). The
// tracker is built only on the refresh path, so DT-path sessions hold
// none. A Session is NOT safe for concurrent use; callers serialize runs.
type Session struct {
	// req is the request ExplainC and ExplainTable run; its Table is the
	// latest snapshot a run used and gen that snapshot's label.
	req  Request
	gen  int64
	prep *prepared // the DT path's prepared search for gen; nil on every other path

	pools   map[float64]*pool
	tracker *stream.Tracker

	// refreshDT keeps DT requests off the DT path so that they refresh
	// warm like every other algorithm. Only NewRefresher sets it, for
	// callers of the deprecated ExplainTable; delete it with them.
	refreshDT bool

	// fallback and refreshedFrom describe the last run (see
	// FallbackReason and RefreshedFrom).
	fallback      string
	refreshedFrom int64
}

// memoizeSelections turns on the DT path's selection memo
// (influence.Scorer.MemoizeSelections). Tests switch it off to check that
// the memo changes no answer.
var memoizeSelections = true

// prepared is what a run builds before it searches: the labelled scorer,
// the (possibly feature-selected) predicate space, the executed query and
// the resolved algorithm. A DT-path session keeps it, with the completed
// partitioning, for every later run on the same generation.
type prepared struct {
	scorer *influence.Scorer
	space  *predicate.Space
	qres   *query.Result
	algo   Algorithm
	part   *dt.Partitioning
}

// pool is one run's full deduped, exact-scored candidate list (descending)
// plus what the run that produced it was: the generation label, resolved
// algorithm, shard count, and the table's row count when it was searched
// (MaxWarmGrowth's baseline — a warm refresh keeps it).
//
// A pool a refresh can reach (off the DT path, removable aggregate) also
// keeps, per candidate, one influence.Selection per labelled group: sels[i]
// belongs to cands[i] and follows the group order of keys. absorbed is the
// row count the selections cover; a refresh folds only the rows after it.
// Such a pool also keeps each candidate's WHERE string once a refresh
// showed it (where[i], "" before) and the n^c table its refreshes share.
type pool struct {
	cands    []partition.Candidate
	sels     [][]influence.Selection
	where    []string
	pow      *influence.Powers
	keys     []string
	absorbed int
	gen      int64
	algo     Algorithm
	shards   int
	rows     int
}

// maxCachedPools bounds the pool map: a long-lived serving session sweeping
// a continuous c slider must not accumulate one candidate slice per
// distinct float forever.
const maxCachedPools = 16

// MaxWarmGrowth caps how much the table may grow, relative to its size when
// a pool was searched, before a session re-searches instead of re-scoring
// the pool: past 50% growth the pool is more stale than warm.
const MaxWarmGrowth = 0.5

// NewSession prepares a session for req (copied; it must be non-nil). No
// query runs until the first call.
func NewSession(req *Request) *Session {
	return &Session{req: *req, pools: make(map[float64]*pool)}
}

// Explain runs r through the session. r must be the session's request up
// to C, Table, Workers, OnProgress and ProgressInterval; r.Table must be the
// snapshot of the previous call or an append successor of it (a later
// snapshot of the same append chain — what catalog entries sharing a
// Lineage guarantee). gen labels r.Table: equal labels mean the same
// snapshot, a larger one a successor. It returns what ExplainContext
// returns, including the partial result on interruption; an interrupted
// run never stores state later runs would reuse.
func (s *Session) Explain(ctx context.Context, r *Request, gen int64) (*Result, error) {
	return s.explain(ctx, r, gen)
}

// FallbackReason names why the last call did not refresh warm: one of
// "cold_start", "table_shrunk", "schema_changed", "growth_cap",
// "advance_failed", "new_group", "group_missing", "states_unavailable" or
// "seed_failed". It is empty after a warm refresh and after a DT-path run,
// which never refreshes.
func (s *Session) FallbackReason() string { return s.fallback }

// RefreshedFrom reports the generation label of the pool the last call
// re-scored, or 0 when it did not refresh.
func (s *Session) RefreshedFrom() int64 { return s.refreshedFrom }

// NewExplainer returns a session for c sweeps: every run takes the DT path
// (Request.Algorithm and Request.Shards are ignored). The aggregate must be
// independent.
//
// Deprecated: use NewSession.
func NewExplainer(req *Request) (*Session, error) {
	if req.Table == nil {
		return nil, fmt.Errorf("scorpion: request has no table")
	}
	q, err := query.FromSQL(req.Table, req.SQL)
	if err != nil {
		return nil, err
	}
	if !q.Agg.Independent() {
		return nil, fmt.Errorf("scorpion: Explainer requires an independent aggregate; %q is not", q.Agg.Name())
	}
	r := *req
	r.Algorithm, r.Shards = DT, 1
	return NewSession(&r), nil
}

// ExplainC runs the session's request at c on its current table.
//
// Deprecated: use Session.Explain.
func (s *Session) ExplainC(c float64) (*Result, error) {
	r := s.req
	r.SetC(c)
	return s.explain(context.Background(), &r, s.genOf(r.Table))
}

// NewRefresher returns a session whose ExplainTable calls refresh warm
// whatever the request's algorithm.
//
// Deprecated: use NewSession.
func NewRefresher(req *Request) (*Session, error) {
	if req == nil {
		return nil, fmt.Errorf("scorpion: nil request")
	}
	s := NewSession(req)
	s.refreshDT = true
	return s, nil
}

// ExplainTable runs the session's request against tbl, refreshing the pool
// at the request's c warm (whatever the algorithm, on a NewRefresher
// session), and reports whether it did.
//
// Deprecated: use Session.Explain.
func (s *Session) ExplainTable(ctx context.Context, tbl *Table) (*Result, bool, error) {
	r := s.req
	r.Table = tbl
	res, err := s.explain(ctx, &r, s.genOf(tbl))
	return res, res != nil && res.Stats.Refreshed, err
}

// genOf labels tbl for the deprecated forwards: the current label for the
// current snapshot, the next one for any other.
func (s *Session) genOf(tbl *Table) int64 {
	if s.gen != 0 && tbl == s.req.Table {
		return s.gen
	}
	return s.gen + 1
}

// dtPath reports whether a Plan's search resolved to algo takes the DT
// reuse path. A one-shot run (s nil) never does.
func (s *Session) dtPath(algo Algorithm, p *Plan) bool {
	return s != nil && !s.refreshDT && p.dtPath(algo)
}

// explain routes one call: a warm refresh when a pool waits at r's c off
// the DT path, else a run of the spine.
func (s *Session) explain(ctx context.Context, r *Request, gen int64) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := r.Plan()
	if err != nil {
		s.fallback, s.refreshedFrom = "", 0
		return nil, err
	}
	if gen != s.gen {
		// A new snapshot: the prepared search is stale, and without a tracker
		// no pool can be re-scored, nor may one seed a merge on it.
		s.prep = nil
		if s.tracker == nil {
			clear(s.pools)
		}
	}
	s.req.Table, s.gen = r.Table, gen
	s.fallback, s.refreshedFrom = "cold_start", 0
	if pl := s.pools[p.c]; pl != nil && !s.dtPath(pl.algo, p) {
		if s.fallback = s.warmBlocker(r.Table, pl); s.fallback == "" {
			if res, err, ok := s.refresh(ctx, p, pl, gen); ok {
				return res, err
			}
		}
	}
	return s.run(ctx, p, gen)
}

// warmBlocker runs the cheap structural checks before a refresh; refresh
// itself re-checks what only the appended tail reveals.
func (s *Session) warmBlocker(tbl *Table, p *pool) string {
	switch n := tbl.NumRows(); {
	case s.tracker == nil || p.rows == 0 || p.sels == nil:
		return "cold_start"
	case n < s.tracker.Rows():
		// Not an append successor at all — distinct from a schema change,
		// and serving layers alert on the two differently.
		return "table_shrunk"
	case !tbl.Schema().Equal(s.tracker.Table().Schema()):
		return "schema_changed"
	case float64(n-p.rows) > MaxWarmGrowth*float64(p.rows):
		return "growth_cap"
	}
	return ""
}

// run is the one run spine — plan → search → rank → stats → interrupt
// handling → metrics — behind ExplainContext (s nil: a one-shot run that
// retains nothing) and every session run that does not refresh warm.
func (s *Session) run(ctx context.Context, p *Plan, gen int64) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("scorpion: %w", err)
	}
	reg := obs.RegistryFrom(ctx)

	var pr *prepared
	var searcher partition.Searcher
	var coord *shard.Coordinator
	var err error
	if s != nil && s.prep != nil {
		// The DT path on its prepared generation: nothing to prepare.
		pr = s.prep
		if err = pr.scorer.SetC(p.c); err != nil {
			return nil, fmt.Errorf("scorpion: %w", err)
		}
		searcher, coord, err = buildTopSearcher(p, pr.scorer, pr.space, pr.algo)
	} else {
		pr, searcher, coord, err = prepare(ctx, p)
	}
	if err != nil {
		if s.dtPath(p.req.Algorithm, p) {
			s.fallback = ""
		}
		return nil, err
	}
	reused := false
	searchName := pr.algo.String()
	session := s.dtPath(pr.algo, p)
	if session {
		s.fallback = ""              // the DT path has no warm/cold
		ds := searcher.(*dtSearcher) // dtPath means unsharded
		ds.part, ds.seeds = pr.part, s.seedsFor(p.c)
		reused = pr.part != nil
		searchName = "dt-session"
	}
	// Calls and memo counts are this run's only: a session's scorer counts
	// every run.
	callsBefore := pr.scorer.Calls()
	memo := memoDelta(pr.scorer)
	calls := func() int64 {
		n := pr.scorer.Calls() - callsBefore
		if coord != nil {
			n += coord.Calls()
		}
		return n
	}
	var board *partition.Board
	var stopMonitor func()
	if p.req.OnProgress != nil {
		board = partition.NewBoard()
		stopMonitor = watchProgress(p, calls, board, start)
	}
	searchCtx, searchSpan := obs.StartSpan(ctx, "search")
	searchSpan.SetAttr("algorithm", searchName)
	if session {
		searchSpan.SetAttr("c", p.c)
		searchSpan.SetAttr("reused_partition", reused)
	}
	outcome, err := partition.RunSearchObserved(searchCtx, p.workers, board, searcher)
	if stopMonitor != nil {
		stopMonitor()
	}
	if outcome != nil {
		searchSpan.SetAttr("candidates", len(outcome.Candidates))
	}
	searchSpan.End()
	if err != nil {
		return nil, err
	}

	rankCtx, rankSpan := obs.StartSpan(ctx, "rank")
	// One exact re-scoring pass feeds both the response and the pool
	// (present never mutates the slice, so they can share it). A pool that
	// may refresh keeps its selections; keep builds its tracker. A DT run or a
	// shard combine re-scores through its lattice, and drops the lattice
	// with it.
	refreshable := s != nil && !session && !outcome.Interrupted && pr.scorer.Incremental()
	var lat *influence.Lattice
	if ls, ok := searcher.(latticeSearcher); ok {
		lat = ls.TakeLattice()
	}
	_, rescore := obs.StartSpan(rankCtx, "rescore")
	scored, sels := rescoreExact(pr.scorer, lat, outcome.Candidates, refreshable)
	rescore.End()
	_, presentSpan := obs.StartSpan(rankCtx, "present")
	res := present(p, pr.scorer, scored, nil, pr.qres)
	presentSpan.End()
	if !session {
		rankSpan.SetAttr("candidates", len(scored))
	}
	rankSpan.End()

	res.Stats.Algorithm = pr.algo
	res.Stats.Duration = time.Since(start)
	res.Stats.ScorerCalls = calls()
	res.Stats.Shards = 1
	if coord != nil {
		res.Stats.Shards = coord.NumShards()
	}
	res.Stats.ReusedPartition = reused
	if s != nil {
		s.keep(p, gen, pr, session, searcher, &pool{cands: scored, sels: sels}, res.Stats, outcome.Interrupted)
	}
	if outcome.Interrupted {
		cause := ctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		res.Stats.Interrupted = true
		res.Stats.InterruptReason = cause.Error()
		recordSearchMetrics(reg, pr.algo, res.Stats, memo)
		return res, fmt.Errorf("scorpion: search interrupted: %w", cause)
	}
	recordSearchMetrics(reg, pr.algo, res.Stats, memo)
	return res, nil
}

// prepare is the spine's plan phase: execute and label the query, resolve
// the algorithm, and build the searcher that runs it.
func prepare(ctx context.Context, p *Plan) (*prepared, partition.Searcher, *shard.Coordinator, error) {
	_, span := obs.StartSpan(ctx, "plan")
	defer span.End()
	scorer, space, qres, err := buildScorer(p)
	if err != nil {
		return nil, nil, nil, err
	}
	algo, err := chooseAlgorithm(&p.req, scorer)
	if err != nil {
		return nil, nil, nil, err
	}
	searcher, coord, err := buildTopSearcher(p, scorer, space, algo)
	if err != nil {
		return nil, nil, nil, err
	}
	span.SetAttr("algorithm", algo.String())
	span.SetAttr("rows", p.req.Table.NumRows())
	span.SetAttr("workers", p.workers)
	if coord != nil {
		span.SetAttr("shards", coord.NumShards())
	}
	return &prepared{scorer: scorer, space: space, qres: qres, algo: algo}, searcher, coord, nil
}

// keep records what a finished spine run leaves for later runs. Only clean
// runs store a pool or a partitioning: a partial one would silently
// degrade every later run that re-used it.
func (s *Session) keep(p *Plan, gen int64, pr *prepared, session bool, searcher partition.Searcher, pl *pool, st Stats, interrupted bool) {
	if interrupted {
		delete(s.pools, p.c)
	} else {
		pl.gen, pl.algo, pl.shards = gen, pr.algo, st.Shards
		pl.rows = p.req.Table.NumRows()
		if pl.sels != nil {
			task := pr.scorer.Task()
			pl.keys = append(groupKeys(task.Outliers), groupKeys(task.HoldOuts)...)
			pl.absorbed = pl.rows
			pl.where = make([]string, len(pl.cands))
		}
		s.store(p.c, pl)
	}
	if session {
		if s.prep != pr {
			// A new generation's search: the older pools can seed nothing.
			for k, old := range s.pools {
				if old.gen != gen {
					delete(s.pools, k)
				}
			}
		}
		if part := searcher.(*dtSearcher).part; part != nil {
			pr.part = part
		}
		// The kept scorer scores the generation's later runs: let them share
		// the boxes' c-independent selections. Turning the memo on only now
		// keeps a session's first run the one-shot run, call for call.
		if memoizeSelections {
			pr.scorer.MemoizeSelections(pr.space)
		}
		s.prep, s.tracker = pr, nil
		return
	}
	s.prep = nil
	if !interrupted {
		// Seed the tracker from the run's own query result: only the
		// per-group states are built here, not a second grouping pass. A
		// non-removable aggregate leaves it nil: such sessions run cold.
		s.tracker, _ = stream.NewTrackerFromResult(p.req.Table, p.req.SQL, pr.qres)
	}
}

// store caches a pool under its c, evicting the smallest cached c when
// full — high-c pools seed the widest range of later (lower-c) DT runs, so
// they are the ones worth keeping.
func (s *Session) store(c float64, p *pool) {
	if _, exists := s.pools[c]; !exists && len(s.pools) >= maxCachedPools {
		evict := c
		for k := range s.pools {
			if k < evict {
				evict = k
			}
		}
		if evict == c {
			return // c is the smallest of all: not worth a slot
		}
		delete(s.pools, evict)
	}
	s.pools[c] = p
}

// seedsFor returns the strongest few candidates of the current
// generation's pool at the smallest cached c still greater than c — the
// §8.3.3 reuse rule ("if the user first ran c = 1, those results can be
// re-used when the user reduces c to 0.5"). Seeding everything would defeat
// the point of the cache; seeding from another snapshot would grow the
// merge from stale scores.
func (s *Session) seedsFor(c float64) []partition.Candidate {
	var keys []float64
	for k, p := range s.pools {
		if k > c && p.gen == s.gen && p.algo == DT {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Float64s(keys)
	seeds := s.pools[keys[0]].cands
	if len(seeds) > 5 {
		seeds = seeds[:5]
	}
	return seeds
}

// refresh advances the tracker over the appended tail and re-scores the
// pool exactly under the grown groups, testing each candidate against the
// rows its selections have not absorbed yet. ok=false means the delta
// revealed a structural change (s.fallback names it) and the caller should
// run cold; the pool is untouched until nothing can fail.
func (s *Session) refresh(ctx context.Context, pl *Plan, p *pool, gen int64) (*Result, error, bool) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("scorpion: %w", err), true
	}
	ctx, span := obs.StartSpan(ctx, "refresh")
	defer span.End()
	r := &pl.req
	tbl := r.Table
	_, advance := obs.StartSpan(ctx, "advance")
	delta, err := s.tracker.Advance(tbl)
	if err == nil {
		advance.SetAttr("tail_rows", delta.TailRows)
		advance.SetAttr("touched", len(delta.Touched))
		advance.SetAttr("new_groups", len(delta.New))
	}
	advance.End()
	if err != nil {
		// An advance that failed structurally may have been a half-applied
		// batch; drop the tracker so the cold run rebuilds it. The error
		// explains WHY the warm path bailed — surface it instead of letting
		// the cold run look unprovoked.
		obs.LoggerFrom(ctx).Warn("scorpion: warm refresh abandoned, tracker advance failed",
			"error", err, "rows", tbl.NumRows())
		span.SetAttr("advance_error", err.Error())
		s.tracker = nil
		s.fallback = "advance_failed"
		return nil, nil, false
	}
	_, seed := obs.StartSpan(ctx, "seed")
	scorer, qres := s.seed(pl, p)
	seed.End()
	if scorer == nil {
		return nil, nil, false
	}

	// Nothing fails from here on: the pool is re-scored in place. rows stays
	// at the searched size — MaxWarmGrowth caps cumulative drift since the
	// pool was searched, not per-batch growth.
	_, rescore := obs.StartSpan(ctx, "rescore")
	tested := 0
	for i := range p.cands {
		tested += scorer.Extend(p.cands[i].Pred, p.absorbed, p.sels[i])
		p.cands[i].SetScore(scorer.ScoreMatched(p.sels[i]))
	}
	ranked{p.cands, p.sels, p.where}.sort()
	rescore.SetAttr("candidates", len(p.cands))
	rescore.SetAttr("rows_tested", tested)
	rescore.End()
	obs.RegistryFrom(ctx).Counter("scorpion_refresh_rows_scanned_total").Add(float64(tested))
	s.refreshedFrom = p.gen
	s.fallback = ""
	p.absorbed, p.gen = tbl.NumRows(), gen

	_, presentSpan := obs.StartSpan(ctx, "present")
	res := present(pl, scorer, p.cands, p.where, qres)
	presentSpan.End()
	res.Stats.Algorithm = p.algo
	res.Stats.Duration = time.Since(start)
	res.Stats.ScorerCalls = scorer.Calls()
	// Report the shard count of the search that PRODUCED the pool: the
	// re-score itself is windowless, but dropping the field would make a
	// sharded request look like its knob was ignored.
	res.Stats.Shards = p.shards
	res.Stats.Refreshed = true
	return res, nil, true
}

// seed labels the advanced tracker's groups for the Plan, builds a scorer
// seeded with their states and aligns p's selections to its group order.
// On a structural change it sets s.fallback and returns a nil scorer.
func (s *Session) seed(pl *Plan, p *pool) (*influence.Scorer, *query.Result) {
	r := &pl.req
	qres := s.tracker.Result()
	task, err := bindTask(pl, s.tracker.Removable(), s.tracker.AggCol(), qres)
	if err != nil {
		s.fallback = "group_missing" // a label group gone from the query output
		return nil, nil
	}
	if len(r.HoldOuts) == 0 && r.AllOthersHoldOut {
		for _, h := range task.HoldOuts {
			if h.Rows.Min() >= p.rows {
				// A group born since the pool was searched changes the
				// all-others label set itself: the pool never faced it.
				s.fallback = "new_group"
				return nil, nil
			}
		}
	}
	outKeys, holdKeys := groupKeys(task.Outliers), groupKeys(task.HoldOuts)
	outStates, err := s.tracker.States(outKeys)
	if err != nil {
		s.fallback = "states_unavailable"
		return nil, nil
	}
	holdStates, err := s.tracker.States(holdKeys)
	if err != nil {
		s.fallback = "states_unavailable"
		return nil, nil
	}
	scorer, err := influence.NewScorerSeeded(task, outStates, holdStates)
	if err != nil {
		s.fallback = "seed_failed"
		return nil, nil
	}
	if !p.align(outKeys, holdKeys) {
		s.fallback = "new_group" // a labelled group the selections never covered
		return nil, nil
	}
	p.pow = scorer.SharePowers(p.pow)
	return scorer, qres
}

// align reorders every candidate's selections from the group order of
// p.keys to the task's: the outliers' keys out, then the hold-outs' hold.
// It reports false, changing nothing, when the task labels a group p.keys
// lacks.
func (p *pool) align(out, hold []string) bool {
	n := len(out)
	if len(p.keys) == n+len(hold) && slices.Equal(p.keys[:n], out) && slices.Equal(p.keys[n:], hold) {
		return true
	}
	keys := append(append([]string(nil), out...), hold...)
	at := make(map[string]int, len(p.keys))
	for i, k := range p.keys {
		at[k] = i
	}
	from := make([]int, len(keys))
	for i, k := range keys {
		j, ok := at[k]
		if !ok {
			return false
		}
		from[i] = j
	}
	for c, old := range p.sels {
		sels := make([]influence.Selection, len(keys))
		for i, j := range from {
			sels[i] = old[j]
		}
		p.sels[c] = sels
	}
	p.keys = keys
	return true
}

func groupKeys(groups []influence.Group) []string {
	keys := make([]string, len(groups))
	for i, g := range groups {
		keys[i] = g.Key
	}
	return keys
}
