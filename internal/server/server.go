// Package server implements the backend of the paper's end-to-end data
// exploration tool (§4.1, Figure 2): a JSON-over-HTTP API through which a
// visualization front-end executes aggregate queries, flags outlier and
// hold-out results, and receives ranked explanation predicates.
//
// Unlike the paper's per-database workflow, one process hosts many datasets
// (a catalog of named tables) and runs every explanation as a job admitted
// against one global worker budget — a serving layer rather than a demo.
//
// Endpoints:
//
//	GET    /tables        — list loaded tables
//	POST   /tables?name=N — upload a CSV body as table N
//	POST   /tables/{name}/rows — append a CSV batch to a loaded table
//	DELETE /tables/{name} — unload a table
//	GET    /schema        — a table's columns and kinds (?table=N)
//	POST   /query         — {"table", "sql"} → aggregate results
//	POST   /explain       — an ExplainRequest → ranked explanations;
//	                        "mode":"async" (or ?mode=async) enqueues instead
//	POST   /jobs          — same body as /explain, always async → job id
//	GET    /jobs          — list jobs
//	GET    /jobs/{id}     — job status, progress, best-so-far, final result
//	DELETE /jobs/{id}     — cancel a live job / forget a finished one
//	GET    /cache         — result-cache stats (hits/misses/coalesced/…)
//	DELETE /cache         — drop all cached results and sessions
//
// The "table" parameter may be omitted while exactly one table is loaded.
// Synchronous /explain is a thin wait-on-job wrapper, so both paths share
// one execution story: queued admission, the per-job worker grant, progress
// snapshots, and cancellation through the job's context.
//
// Repeated traffic is served from a result cache and one session store
// (see cache.go): an identical repeat answers instantly with "cached":
// true, concurrent identical requests coalesce onto one job, a repeat
// differing only in the c knob reuses the session's DT partitioning
// (§8.3.3), and a repeat after an append — which publishes a SUCCESSOR
// generation on the same lineage — re-scores the previous run's candidates
// against the grown groups instead of re-searching ("refreshed_from" names
// the generation they came from). Requests opt out per call with "cache":
// "bypass".
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/cache"
	"github.com/scorpiondb/scorpion/internal/catalog"
	"github.com/scorpiondb/scorpion/internal/dispatch"
	"github.com/scorpiondb/scorpion/internal/jobs"
	"github.com/scorpiondb/scorpion/internal/obs"
)

// Server serves a catalog of tables over HTTP, scheduling explanation
// searches onto a shared worker budget.
type Server struct {
	catalog *catalog.Catalog
	sched   *jobs.Scheduler
	mux     *http.ServeMux
	// cache holds finished /explain results keyed by their Plan key
	// and coalesces concurrent identical requests; sessions holds the
	// per-(table lineage, request without c) scorpion.Session reuse units.
	// Both nil when caching is disabled (ConfigureCache(-1)).
	cache    *cache.Cache
	sessions *cache.Cache
	// reg is the process-wide metrics registry (always non-nil; NewCatalog
	// installs one): HTTP traffic, scheduler and cache collectors, and the
	// search spine (through job contexts) all report into it. log is the
	// base logger for request-scoped logging; nil (the default) logs
	// nothing — the server binary installs one via SetLogger.
	reg *obs.Registry
	log *slog.Logger
	// inflightJobs maps a live coalescable job's id to its inflight record
	// so the explicit DELETE /jobs/{id} path can honor waiter accounting
	// (one client's cancel must not kill a search others still wait on).
	inflightJobs sync.Map
	// ExplainTimeout bounds one explanation search once it starts running
	// (0 = none); queue wait does not count. The deadline is enforced
	// through the job's context: when it passes, the running search itself
	// stops and a synchronous client receives a 504 JSON error.
	ExplainTimeout time.Duration
	// Workers is the default per-search worker grant when a request leaves
	// "workers" unset (0 = serial, -1 = GOMAXPROCS). The scheduler further
	// clamps grants so that all running jobs together never exceed its
	// global budget.
	Workers int
	// ProgressInterval is how often running jobs refresh their best-so-far
	// snapshot (0 = 100ms).
	ProgressInterval time.Duration
	// MaxUploadBytes caps a POST /tables body (0 = 256 MiB) so one upload
	// cannot exhaust the process's memory.
	MaxUploadBytes int64
	// workerSem caps concurrent remote shard searches when this process
	// runs as a worker (EnableWorker); sized by the scheduler budget.
	workerSem chan struct{}
	// dispatch is the remote shard peer pool when this process coordinates
	// over a fleet (SetPeers); nil means every shard searches locally.
	dispatch *dispatch.Pool
}

// defaultMaxUploadBytes bounds table uploads when MaxUploadBytes is unset.
const defaultMaxUploadBytes = 256 << 20

// New builds a single-table server with a default scheduler — the
// pre-catalog convenience constructor. The table is registered under the
// name "default" but requests may omit the table parameter while it is the
// only one loaded.
func New(table *scorpion.Table) *Server {
	cat := catalog.New()
	if _, err := cat.Add("default", table, "builtin"); err != nil {
		panic(err) // "default" is a valid name; only a nil table can fail
	}
	return NewCatalog(cat, nil)
}

// NewCatalog builds a server over an existing catalog and scheduler. A nil
// scheduler gets a default one (GOMAXPROCS budget). The caller should
// Close the server (or the scheduler) on shutdown to cancel live jobs.
func NewCatalog(cat *catalog.Catalog, sched *jobs.Scheduler) *Server {
	if sched == nil {
		sched = jobs.New(jobs.Options{})
	}
	s := &Server{
		catalog:  cat,
		sched:    sched,
		mux:      http.NewServeMux(),
		cache:    cache.New(0), // 0 = cache.DefaultCapacity
		sessions: cache.New(defaultSessionEntries),
		reg:      obs.NewRegistry(),
	}
	sched.SetRegistry(s.reg)
	// One scrape-time collector over whichever caches are CURRENT:
	// ConfigureCache swaps the cache pointers, so registering the caches
	// themselves would pin (and keep exporting) the originals forever.
	s.reg.RegisterFunc(func(emit obs.EmitFunc) {
		s.cache.EmitMetrics(emit, "results")
		s.sessions.EmitMetrics(emit, "sessions")
	})
	s.mux.HandleFunc("GET /tables", s.handleTables)
	s.mux.HandleFunc("POST /tables", s.handleTableUpload)
	s.mux.HandleFunc("POST /tables/{name}/rows", s.handleTableAppend)
	s.mux.HandleFunc("DELETE /tables/{name}", s.handleTableDelete)
	s.mux.HandleFunc("GET /schema", s.handleSchema)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /explain", s.handleExplain)
	s.mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleJobList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /cache", s.handleCacheStats)
	s.mux.HandleFunc("DELETE /cache", s.handleCacheClear)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/vars", s.handleDebugVars)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	return s
}

// Catalog returns the server's table registry.
func (s *Server) Catalog() *catalog.Catalog { return s.catalog }

// Scheduler returns the server's job scheduler.
func (s *Server) Scheduler() *jobs.Scheduler { return s.sched }

// Close cancels all live jobs and rejects new ones.
func (s *Server) Close() { s.sched.Close() }

// --- catalog endpoints -------------------------------------------------

// tableJSON describes one catalog entry.
type tableJSON struct {
	Name     string `json:"name"`
	Rows     int    `json:"rows"`
	Columns  int    `json:"columns"`
	Source   string `json:"source"`
	LoadedAt string `json:"loaded_at"`
	// Gen is the entry's content generation; Lineage identifies its
	// append-only snapshot chain (appends bump Gen, keep Lineage).
	Gen     int64 `json:"gen"`
	Lineage int64 `json:"lineage"`
	// AppendedRows is the size of the latest appended tail (0 for a fresh
	// load).
	AppendedRows int `json:"appended_rows,omitempty"`
}

func entryJSON(e *catalog.Entry) tableJSON {
	appended := 0
	if e.PrevGen != 0 {
		appended = e.Rows() - e.PrevRows
	}
	return tableJSON{
		Name:         e.Name,
		Rows:         e.Rows(),
		Columns:      e.Columns(),
		Source:       e.Source,
		LoadedAt:     e.LoadedAt.UTC().Format(time.RFC3339),
		Gen:          e.Gen,
		Lineage:      e.Lineage,
		AppendedRows: appended,
	}
}

func (s *Server) handleTables(w http.ResponseWriter, _ *http.Request) {
	entries := s.catalog.List()
	out := make([]tableJSON, len(entries))
	for i, e := range entries {
		out[i] = entryJSON(e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"tables": out})
}

func (s *Server) handleTableUpload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing ?name= for uploaded table"))
		return
	}
	limit := s.MaxUploadBytes
	if limit <= 0 {
		limit = defaultMaxUploadBytes
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	e, err := s.catalog.LoadCSV(name, body, scorpion.CSVOptions{}, "upload")
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("upload exceeds the %d-byte limit", limit))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The upload may have replaced an existing table of the same name:
	// drop its cached results and sessions. (Keys also embed the catalog
	// generation, so this is hygiene, not the correctness mechanism.)
	s.invalidateTable(name)
	writeJSON(w, http.StatusCreated, map[string]any{"table": entryJSON(e)})
}

// handleTableAppend grows a loaded table by a CSV batch (header row naming
// the table's columns, any order). The append publishes a successor
// generation on the same lineage: cached results of the old generation are
// swept (they can never be hit again), but sessions survive — the next
// explanation against this table warm-starts from them instead of
// searching cold.
func (s *Server) handleTableAppend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	limit := s.MaxUploadBytes
	if limit <= 0 {
		limit = defaultMaxUploadBytes
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	e, n, err := s.catalog.AppendCSV(name, body)
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("append exceeds the %d-byte limit", limit))
		case errors.Is(err, catalog.ErrNotFound):
			writeError(w, http.StatusNotFound, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	// Old-generation results are unreachable now (keys embed the
	// generation); sweep them for memory, NOT for correctness. Sessions
	// (keyed by lineage) are deliberately kept: successor generations
	// warm-start rather than invalidate.
	if s.cache != nil {
		s.cache.InvalidatePrefix(name + "@")
	}
	s.reg.Counter("scorpion_append_batches_total", "table", name).Inc()
	s.reg.Counter("scorpion_append_rows_total", "table", name).Add(float64(n))
	writeJSON(w, http.StatusOK, map[string]any{
		"table":    entryJSON(e),
		"appended": n,
	})
}

func (s *Server) handleTableDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.catalog.Remove(name) {
		writeError(w, http.StatusNotFound, fmt.Errorf("no table %q", name))
		return
	}
	s.invalidateTable(name)
	writeJSON(w, http.StatusOK, map[string]any{"unloaded": name})
}

// resolveTable maps a request's table parameter to a catalog entry.
func (s *Server) resolveTable(name string) (*catalog.Entry, error) {
	return s.catalog.Resolve(name)
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	entry, err := s.resolveTable(r.URL.Query().Get("table"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	table := entry.Table
	cols := make([]columnJSON, 0, table.Schema().NumColumns())
	for i := 0; i < table.Schema().NumColumns(); i++ {
		c := table.Schema().Column(i)
		cols = append(cols, columnJSON{Name: c.Name, Kind: c.Kind.String()})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"table":   entry.Name,
		"columns": cols,
		"rows":    table.NumRows(),
	})
}

// columnJSON describes one schema column.
type columnJSON struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// --- query endpoint ----------------------------------------------------

// QueryRequest is the /query input.
type QueryRequest struct {
	// Table names the catalog entry to query; may be empty while exactly
	// one table is loaded.
	Table string `json:"table,omitempty"`
	SQL   string `json:"sql"`
}

// QueryRow is one aggregate result.
type QueryRow struct {
	Key       string  `json:"key"`
	Value     float64 `json:"value"`
	GroupSize int     `json:"group_size"`
}

// maxRequestBytes bounds the JSON body of /explain, /jobs and /query. The
// largest legitimate request is a few kilobytes of SQL, keys and knobs, so
// the limit is a constant, not a setting.
const maxRequestBytes = 1 << 20

// decodeRequest decodes a JSON request body of at most maxRequestBytes into
// v. On failure it answers — 413 for an oversized body, 400 for malformed
// JSON — and reports false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds the %d-byte limit", maxRequestBytes))
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %w", err))
	return false
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	entry, err := s.resolveTable(req.Table)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	res, err := scorpion.RunQuery(entry.Table, req.SQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rows := make([]QueryRow, 0, len(res.Rows))
	for _, row := range res.Rows {
		size := 0
		if row.Group != nil {
			size = row.Group.Count()
		}
		rows = append(rows, QueryRow{Key: row.Key, Value: row.Value, GroupSize: size})
	}
	writeJSON(w, http.StatusOK, map[string]any{"table": entry.Name, "rows": rows})
}

// --- explain / jobs ----------------------------------------------------

// ExplainRequest is the /explain and /jobs input.
type ExplainRequest struct {
	// Table names the catalog entry to explain against; may be empty while
	// exactly one table is loaded.
	Table            string   `json:"table,omitempty"`
	SQL              string   `json:"sql"`
	Outliers         []string `json:"outliers"`
	HoldOuts         []string `json:"holdouts,omitempty"`
	AllOthersHoldOut bool     `json:"all_others_holdout,omitempty"`
	Direction        string   `json:"direction,omitempty"` // "high" (default) | "low"
	Attributes       []string `json:"attributes,omitempty"`
	C                *float64 `json:"c,omitempty"`
	Lambda           *float64 `json:"lambda,omitempty"`
	Algorithm        string   `json:"algorithm,omitempty"` // auto|naive|dt|mc
	TopK             int      `json:"top_k,omitempty"`
	// Workers requests a search worker grant: 0 = server default, -1 =
	// GOMAXPROCS; other negative values are rejected. The scheduler clamps
	// the grant against its global budget. An unsharded "dt" or "mc"
	// request runs on one goroutine and is granted one worker; "auto" keeps
	// its ask, as its algorithm is chosen when the job runs.
	Workers int `json:"workers,omitempty"`
	// Shards fans the search across horizontal slices of the table
	// (scorpion.Request.Shards): 0 = auto from the table size and worker
	// grant, 1 = unsharded, k > 1 = slice into k group-aware windows.
	// Negative values are rejected. Sharded requests never take a session's
	// DT path (no partition reuse) and per-shard best-so-far appears in job
	// progress snapshots.
	Shards int `json:"shards,omitempty"`
	// Mode selects sync (default) or "async" execution on /explain;
	// ignored on /jobs, which is always async.
	Mode string `json:"mode,omitempty"`
	// Cache controls result caching for this request: "" (default) serves
	// hits, coalesces duplicates, and reuses sessions; "bypass" forces a
	// cold one-shot search whose result is not stored.
	Cache string `json:"cache,omitempty"`
}

// ExplanationJSON is one ranked explanation.
type ExplanationJSON struct {
	Where             string  `json:"where"`
	Influence         float64 `json:"influence"`
	Matched           int     `json:"matched_outlier_tuples"`
	HoldOutPenalty    float64 `json:"holdout_penalty"`
	InfluencesHoldOut bool    `json:"influences_holdout"`
}

// JobProgress is the best-so-far snapshot a running job exposes to polls.
type JobProgress struct {
	ElapsedMS   int64                `json:"elapsed_ms"`
	ScorerCalls int64                `json:"scorer_calls"`
	Best        []scorpion.BestSoFar `json:"best"`
	// Shards carries per-shard best-so-far (window-local estimates) when
	// the search runs sharded.
	Shards  []scorpion.ShardProgress `json:"shards,omitempty"`
	Version int64                    `json:"version"`
}

// resolveWorkers validates and resolves the per-request workers knob:
// 0 uses the server default, -1 (like the CLI) means GOMAXPROCS, other
// negatives are rejected, and the result is clamped to GOMAXPROCS — extra
// goroutines beyond the host's parallelism cannot help, and an absurd
// value must not allocate them.
func (s *Server) resolveWorkers(requested int) (int, error) {
	if requested < -1 {
		return 0, fmt.Errorf("bad workers %d (want -1, 0, or a positive count)", requested)
	}
	w := requested
	if w == 0 {
		w = s.Workers
	}
	maxW := runtime.GOMAXPROCS(0)
	if w < 0 {
		w = maxW
	}
	if w == 0 {
		w = 1 // serial
	}
	if w > maxW {
		w = maxW
	}
	return w, nil
}

// explainPlan is a compiled ExplainRequest: the schedulable task plus the
// cache keys that route it. key is empty when the result must not be
// cached or coalesced (caching disabled, or "cache": "bypass").
type explainPlan struct {
	task jobs.Task
	key  string
}

// buildExplainTask validates an ExplainRequest and compiles it into a
// schedulable job plan. reqID is the submitting request's correlation id
// (possibly empty); it rides the task into job views and the run's root
// span. Validation errors map to the returned status code.
func (s *Server) buildExplainTask(req *ExplainRequest, reqID string) (*explainPlan, int, error) {
	entry, err := s.resolveTable(req.Table)
	if err != nil {
		return nil, http.StatusNotFound, err
	}
	workers, err := s.resolveWorkers(req.Workers)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	sreq := &scorpion.Request{
		Table:            entry.Table,
		SQL:              req.SQL,
		Outliers:         req.Outliers,
		HoldOuts:         req.HoldOuts,
		AllOthersHoldOut: req.AllOthersHoldOut,
		Attributes:       req.Attributes,
		TopK:             req.TopK,
		Workers:          workers,
		Shards:           req.Shards,
	}
	switch req.Direction {
	case "", "high":
		sreq.Direction = scorpion.TooHigh
	case "low":
		sreq.Direction = scorpion.TooLow
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("bad direction %q", req.Direction)
	}
	switch req.Algorithm {
	case "", "auto":
		sreq.Algorithm = scorpion.Auto
	case "naive":
		sreq.Algorithm = scorpion.Naive
	case "dt":
		sreq.Algorithm = scorpion.DT
	case "mc":
		sreq.Algorithm = scorpion.MC
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("bad algorithm %q", req.Algorithm)
	}
	switch req.Cache {
	case "", "bypass":
	default:
		return nil, http.StatusBadRequest, fmt.Errorf("bad cache %q (want bypass)", req.Cache)
	}
	// SetC/SetLambda, not field writes: an explicit {"c": 0} or
	// {"lambda": 0} is a legal knob setting (§3.2 allows λ = 0) and must
	// reach the scorer unchanged instead of being mistaken for "unset".
	if req.C != nil {
		sreq.SetC(*req.C)
	}
	if req.Lambda != nil {
		sreq.SetLambda(*req.Lambda)
	}
	if s.dispatch != nil {
		// Offer this search's shards to the worker fleet. The dispatcher
		// declines non-grid algorithms and failed peers per shard, so this
		// is always safe to set; the local path is the fallback.
		sreq.ShardDispatch = s.dispatch.For(entry.Name, entry.Gen)
	}
	// Validate and resolve before admission: a bad knob is a 400 that
	// names it, never a queued job that fails later.
	plan, err := sreq.Plan()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	var key, sessionKey string
	if s.cache != nil && req.Cache != "bypass" {
		key = plan.Key(entry.Name + "@" + strconv.FormatInt(entry.Gen, 10))
		sessionKey = plan.SessionKey(entry.Name + "#" + strconv.FormatInt(entry.Lineage, 10))
	}
	// The task outlives the run in the scheduler's terminal-job ring, so
	// its closure keeps the one bit of the Plan it needs, not the Plan.
	mayReuse := plan.MayReusePartition()

	interval := s.ProgressInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	task := jobs.Task{
		Kind:      "explain",
		Table:     entry.Name,
		Workers:   plan.Workers(),
		Timeout:   s.ExplainTimeout,
		RequestID: reqID,
		Run: func(ctx context.Context, granted int, report func(any)) (any, error) {
			// The job runs detached from the HTTP request (async clients
			// poll it), so the telemetry context is rebuilt here: the
			// process registry, plus a fresh root span that becomes the
			// job's phase timeline ("trace" in the result).
			ctx = obs.ContextWithRegistry(ctx, s.reg)
			root := obs.NewSpan("explain")
			root.SetAttr("table", entry.Name)
			if reqID != "" {
				root.SetAttr("request_id", reqID)
			}
			ctx = obs.ContextWithSpan(ctx, root)
			r := *sreq
			r.Workers = granted
			r.ProgressInterval = interval
			r.OnProgress = func(p scorpion.Progress) {
				report(JobProgress{
					ElapsedMS:   p.Elapsed.Milliseconds(),
					ScorerCalls: p.ScorerCalls,
					Best:        p.Best,
					Shards:      p.Shards,
					Version:     p.Version,
				})
			}
			var res *scorpion.Result
			var refreshedFrom int64
			var err error
			if sess := s.sessionFor(sessionKey, sreq); sess != nil {
				var reason string
				res, refreshedFrom, reason, err = sess.run(ctx, &r, mayReuse, entry)
				switch {
				case refreshedFrom > 0:
					s.reg.Counter("scorpion_stream_warm_total", "table", entry.Name).Inc()
				case reason != "":
					s.reg.Counter("scorpion_stream_cold_total",
						"table", entry.Name, "reason", reason).Inc()
				}
			} else {
				res, err = scorpion.ExplainContext(ctx, &r)
			}
			root.End()
			if res == nil {
				return nil, err
			}
			// A partial (interrupted) result is still worth returning.
			out := explainResultJSON(res)
			out["trace"] = []*obs.Node{root.Snapshot()}
			if refreshedFrom > 0 {
				out["refreshed_from"] = refreshedFrom
			}
			if key != "" {
				out["cached"] = false
				out["cache_key"] = key
			}
			return out, err
		},
	}
	return &explainPlan{task: task, key: key}, 0, nil
}

// explainResultJSON renders a search result as the /explain response body.
func explainResultJSON(res *scorpion.Result) map[string]any {
	explanations := make([]ExplanationJSON, 0, len(res.Explanations))
	for _, e := range res.Explanations {
		explanations = append(explanations, ExplanationJSON{
			Where:             e.Where,
			Influence:         e.Influence,
			Matched:           e.MatchedOutlierTuples,
			HoldOutPenalty:    e.HoldOutPenalty,
			InfluencesHoldOut: e.InfluencesHoldOut,
		})
	}
	out := map[string]any{
		"algorithm":    res.Stats.Algorithm.String(),
		"duration_ms":  res.Stats.Duration.Milliseconds(),
		"scorer_calls": res.Stats.ScorerCalls,
		"explanations": explanations,
	}
	if res.Stats.Shards > 1 {
		out["shards"] = res.Stats.Shards
	}
	if res.Stats.ReusedPartition {
		out["reused_partition"] = true
	}
	if res.Stats.Refreshed {
		out["refreshed"] = true
	}
	if res.Stats.Interrupted {
		out["interrupted"] = true
		out["interrupt_reason"] = res.Stats.InterruptReason
	}
	return out
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	async := req.Mode == "async" || r.URL.Query().Get("mode") == "async"
	if req.Mode != "" && req.Mode != "sync" && req.Mode != "async" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad mode %q (want sync or async)", req.Mode))
		return
	}
	plan, status, err := s.buildExplainTask(&req, obs.RequestID(r.Context()))
	if err != nil {
		writeError(w, status, err)
		return
	}
	if async {
		s.submitAsync(w, plan)
		return
	}

	// Synchronous path: a thin wait-on-job wrapper. The search still runs
	// as a scheduled job (same admission, budget, progress and cancel
	// story); the handler just blocks on its completion. A cache hit is
	// answered immediately without a job; a coalesced request waits on
	// another request's identical job.
	job, inf, hit, err := s.dispatchExplain(plan, false)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	if hit != nil {
		writeJSON(w, http.StatusOK, hit)
		return
	}
	// dispatchExplain already counted this handler in inf.waiters.
	select {
	case <-job.Done():
		if inf != nil {
			inf.waiters.Add(-1)
		}
	case <-r.Context().Done():
		// Client went away or the server is draining. Cancel the job only
		// when nobody else shares it: coalesced identical requests wait on
		// ONE job, and async clients may be polling it. (A follower that
		// joins in the instant between the count reaching zero and the
		// cancel landing sees a canceled partial result — the same outcome
		// as issuing the request during a shutdown.)
		if inf == nil || (inf.waiters.Add(-1) == 0 && inf.pollers.Load() == 0) {
			s.sched.Cancel(job.ID())
			<-job.Done()
		} else {
			// Others still wait on the search; just stop waiting.
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("explanation canceled"))
			return
		}
	}
	result, err := job.Result()
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, fmt.Errorf("explanation exceeded %s", s.ExplainTimeout))
		case errors.Is(err, context.Canceled):
			// Either the client went away (the write below goes nowhere) or
			// the server is shutting down while the client still listens —
			// answer 503 so a drained connection never sees an empty 200.
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("explanation canceled"))
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, result)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	plan, status, err := s.buildExplainTask(&req, obs.RequestID(r.Context()))
	if err != nil {
		writeError(w, status, err)
		return
	}
	s.submitAsync(w, plan)
}

// submitAsync dispatches the plan and answers 202 with the job handle. A
// cache hit hands back an already-"done" job (poll once, get the result);
// a coalesced duplicate hands back the SAME job id as the in-flight
// original — the idempotency-key behavior for repeated submissions.
func (s *Server) submitAsync(w http.ResponseWriter, plan *explainPlan) {
	job, _, _, err := s.dispatchExplain(plan, true)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"job_id": job.ID(),
		"status": string(job.View().Status),
		"poll":   "/jobs/" + job.ID(),
	})
}

// --- cache endpoints ----------------------------------------------------

// handleCacheStats reports the result cache's counters plus the session
// store's occupancy.
func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	if s.cache == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"enabled":  true,
		"results":  s.cache.Stats(),
		"sessions": s.sessions.Stats().Entries,
	})
}

// handleCacheClear drops every cached result and session.
// In-flight searches are untouched; their results repopulate the cache.
func (s *Server) handleCacheClear(w http.ResponseWriter, _ *http.Request) {
	if s.cache == nil {
		writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"cleared":          s.cache.Clear(),
		"sessions_cleared": s.sessions.Clear(),
	})
}

// writeSubmitError maps scheduler admission failures to HTTP statuses:
// a full queue is load-shedding (429), a closed scheduler is shutdown (503).
func writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// jobJSON renders a job view for /jobs responses.
func jobJSON(v jobs.View) map[string]any {
	out := map[string]any{
		"id":      v.ID,
		"kind":    v.Kind,
		"table":   v.Table,
		"status":  string(v.Status),
		"created": v.Created.UTC().Format(time.RFC3339Nano),
	}
	if v.RequestID != "" {
		out["request_id"] = v.RequestID
	}
	// The queued/running split: queued_ms is admission wait only, and
	// running_ms (present once the job has started) is pure run time —
	// a queued-but-slow job and a fast-but-starved one look different.
	out["queued_ms"] = v.QueuedFor.Milliseconds()
	if !v.Started.IsZero() {
		out["running_ms"] = v.RanFor.Milliseconds()
	}
	if v.Status == jobs.StatusQueued && v.QueuePos > 0 {
		// 1 = next to be admitted; async clients use this to see where
		// they stand under load.
		out["position"] = v.QueuePos
	}
	if !v.Started.IsZero() {
		out["started"] = v.Started.UTC().Format(time.RFC3339Nano)
		out["workers"] = v.Workers
	}
	if !v.Finished.IsZero() {
		out["finished"] = v.Finished.UTC().Format(time.RFC3339Nano)
	}
	if v.Progress != nil {
		out["progress"] = v.Progress
	}
	if v.Result != nil {
		out["result"] = v.Result
	}
	if v.Err != nil {
		out["error"] = v.Err.Error()
	}
	return out
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	views := s.sched.Jobs()
	out := make([]map[string]any, len(views))
	for i, v := range views {
		out[i] = jobJSON(v)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	view, ok := s.sched.ViewOf(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, jobJSON(view))
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.sched.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	// A coalesced job is shared: one client's explicit cancel must not
	// fail the others'. Every DELETE retires one async poller (so an
	// abandoned search never becomes uncancelable); the job is answered
	// "shared" — and keeps running — while synchronous waiters remain or
	// other pollers still hold the id. The CLI treats "shared" by simply
	// continuing to poll. Clients are anonymous, so the accounting is
	// one-DELETE-per-poller by convention: a RETRIED delete retires a
	// second slot — treat a "shared" answer as success, don't retry it.
	if v, ok := s.inflightJobs.Load(id); ok {
		inf := v.(*inflight)
		polling := inf.pollers.Load()
		for polling > 0 && !inf.pollers.CompareAndSwap(polling, polling-1) {
			polling = inf.pollers.Load()
		}
		if inf.waiters.Load() > 0 || polling > 1 {
			writeJSON(w, http.StatusOK, map[string]any{"shared": id, "job": jobJSON(job.View())})
			return
		}
	}
	if s.sched.Cancel(id) {
		// Live job: cancellation is in flight; report the current state.
		writeJSON(w, http.StatusOK, map[string]any{"canceled": id, "job": jobJSON(job.View())})
		return
	}
	// Terminal job: forget it, but hand back its final state — a client
	// whose cancel raced the job's own completion recovers the result from
	// this response instead of a 404 on its next poll.
	view := job.View()
	s.sched.Remove(id)
	writeJSON(w, http.StatusOK, map[string]any{"removed": id, "job": jobJSON(view)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
