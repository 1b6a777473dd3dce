package server

// Server-level result caching, request coalescing and session reuse
// (§8.3.3 serving path). Three cooperating pieces make repeated traffic
// cheap rather than merely schedulable:
//
//   - a bounded LRU of finished /explain results keyed by the request's
//     scorpion.Plan key (internal/cache.Cache): a repeated identical
//     request is answered from memory as an instantly-terminal job,
//     spending zero worker budget;
//   - flight coalescing on the same keys: N concurrent identical requests
//     admit ONE search job and all wait on (or poll) it;
//   - one scorpion.Session per (table lineage, request without c): a
//     request that differs from a previous one only in c reuses the
//     session's DT partitioning and high-c merge seeds (DT path), and a
//     request repeated after an append re-scores the previous run's
//     candidate pool at its c against the grown groups instead of
//     searching ("refreshed_from" names the generation the pool came from).
//
// Result keys are Plan.Key and session keys Plan.SessionKey (the same
// encoding without c). Result keys embed the catalog entry's generation
// ("<table>@<gen>|<hash>"), so uploading over, replacing, appending to or
// unloading a table can never serve results computed against the old data. Session keys embed the
// lineage instead ("<table>#<lineage>|<hash>"): an append's successor
// generation lands on the same session and warm-starts from it, while a
// replace or unload starts a new lineage. The handlers sweep the
// "<table>@" prefix on every table change and the "<table>#" prefix on
// replace and unload, to free dead entries.

import (
	"context"
	"sync"
	"sync/atomic"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/cache"
	"github.com/scorpiondb/scorpion/internal/catalog"
	"github.com/scorpiondb/scorpion/internal/jobs"
)

// defaultSessionEntries bounds the session store. A session pins, per c,
// a candidate pool and, per generation, either a DT plan (scorer states and
// partitioning) or a stream tracker, so the bound is deliberately modest.
// Sessions survive appends, so a DT session keeps its last generation's
// plan until its next request (which drops it) or eviction: still one plan
// per session. Successor snapshots share column storage with their
// predecessor except across an append that outgrows the arrays' capacity,
// so a stale plan rarely pins a second copy of the table.
const defaultSessionEntries = 32

// ConfigureCache sizes the server's result cache: entries > 0 sets the
// LRU bound, entries == 0 keeps the default, and entries < 0 disables
// result caching, coalescing, and session reuse entirely. Call before
// serving traffic.
func (s *Server) ConfigureCache(entries int) {
	if entries < 0 {
		s.cache = nil
		s.sessions = nil
		return
	}
	s.cache = cache.New(entries) // New maps 0 to cache.DefaultCapacity
	s.sessions = cache.New(defaultSessionEntries)
}

// invalidateTable drops every cached result and session belonging to the
// named table; called when a table is uploaded over or unloaded, which ends
// its lineage. (Keys carry the generation or lineage too, so this is
// proactive memory hygiene, not the correctness mechanism.)
func (s *Server) invalidateTable(name string) {
	if s.cache != nil {
		s.cache.InvalidatePrefix(name + "@")
	}
	if s.sessions != nil {
		s.sessions.InvalidatePrefix(name + "#")
	}
}

// --- sessions -----------------------------------------------------------

// session is the server's one reuse unit: a scorpion.Session plus the
// catalog generation of its last successful run. Runs are serialized per
// session; concurrent identical requests coalesce upstream, and a
// concurrent DIFFERENT request on the same session (another c) falls back
// to a plain search rather than queueing.
type session struct {
	mu  sync.Mutex
	s   *scorpion.Session
	gen int64
}

// sessionFor resolves (or creates) the session under key; nil when session
// reuse is disabled or bypassed.
func (s *Server) sessionFor(key string, sreq *scorpion.Request) *session {
	if s.sessions == nil || key == "" {
		return nil
	}
	return s.sessions.GetOrCreate(key, 1, func() any {
		return &session{s: scorpion.NewSession(sreq)}
	}).(*session)
}

// run executes one request through the session. r already carries the
// job's granted workers and progress reporter; mayReuse is its Plan's
// MayReusePartition from admission (the worker grant cannot change it). It
// returns the generation the result was refreshed from (0 unless warm) and,
// for a request off the DT path that did not refresh, why — the reason
// label of the server's scorpion_stream_cold_total counter ("" otherwise).
func (sess *session) run(ctx context.Context, r *scorpion.Request, mayReuse bool, entry *catalog.Entry) (*scorpion.Result, int64, string, error) {
	sessionless := func(reason string) (*scorpion.Result, int64, string, error) {
		res, err := scorpion.ExplainContext(ctx, r)
		if mayReuse {
			reason = "" // may be the DT path, which has no warm/cold
		}
		return res, 0, reason, err
	}
	if !sess.mu.TryLock() {
		// Mid-run for another request: don't park this job's granted
		// workers (and its deadline, and its cancelability) on a mutex
		// doing nothing. Only the reuse is forgone.
		return sessionless("busy")
	}
	defer sess.mu.Unlock()
	if entry.Gen < sess.gen {
		// A queued job that resolved its entry BEFORE an append another
		// request has since advanced past: answering it from the session
		// would rebuild on the obsolete snapshot and throw away the fresher
		// state.
		return sessionless("stale_generation")
	}
	res, err := sess.s.Explain(ctx, r, entry.Gen)
	if err == nil {
		sess.gen = entry.Gen
	}
	return res, sess.s.RefreshedFrom(), sess.s.FallbackReason(), err
}

// --- coalesced in-flight jobs -------------------------------------------

// inflight wraps the one job shared by coalesced identical requests, with
// waiter accounting so a single client's disconnect does not cancel a
// search other clients still wait on. dispatchExplain registers every
// caller BEFORE the inflight becomes observable (the leader before
// Publish, a follower before dispatch returns), so the counts can never
// transiently read zero while a client still cares. waiters counts
// synchronous handlers blocked on the job; pollers counts async
// submissions that were handed this job id to poll — each explicit
// DELETE retires one poller, and the job is only canceled by the last.
type inflight struct {
	job     *jobs.Job
	waiters atomic.Int64
	pollers atomic.Int64
}

// approxSize estimates a result's memory footprint for the cache's bytes
// accounting. It is structural, not a JSON encoding: it runs inside
// jobs.Task.OnDone — under the scheduler's lock — so it must stay O(top-k)
// cheap.
func approxSize(v any) int64 {
	size := int64(256) // fixed fields: algorithm, durations, counters, key
	m, ok := v.(map[string]any)
	if !ok {
		return size
	}
	if exps, ok := m["explanations"].([]ExplanationJSON); ok {
		for _, e := range exps {
			size += int64(len(e.Where)) + 96
		}
	}
	return size
}

// cachedResponse clones a stored result map and marks it as served from
// the cache. (The stored map is shared by every future hit — it must never
// be mutated in place.)
func cachedResponse(v any, key string) map[string]any {
	src, ok := v.(map[string]any)
	if !ok {
		return map[string]any{"cached": true, "cache_key": key}
	}
	out := make(map[string]any, len(src)+1)
	for k, val := range src {
		if k == "trace" {
			// A hit ran none of the phases the stored timeline describes;
			// serving it would misattribute another request's timings.
			continue
		}
		out[k] = val
	}
	out["cached"] = true
	return out
}

// dispatchExplain routes a compiled request through the cache: a hit is
// served directly (sync) or as an instantly-terminal job (async, which
// owes the client a pollable job id), a miss under an identical in-flight
// request coalesces onto its job, and everything else admits a fresh job
// whose result (on success) populates the cache. Exactly one of hit and
// job is non-nil on success; inflight is non-nil only for coalescable
// jobs.
func (s *Server) dispatchExplain(plan *explainPlan, async bool) (job *jobs.Job, inf *inflight, hit map[string]any, err error) {
	if s.cache == nil || plan.key == "" {
		job, err := s.sched.Submit(plan.task)
		return job, nil, nil, err
	}
	if v, ok := s.cache.Get(plan.key); ok {
		res := cachedResponse(v, plan.key)
		if !async {
			// Serve the hit without minting a job: unbounded hit traffic
			// must not churn the scheduler's terminal-job retention ring
			// out from under async clients still polling real results.
			return nil, nil, res, nil
		}
		job, err := s.sched.SubmitDone(plan.task, res)
		return job, nil, nil, err
	}
	flight, leader := s.cache.Join(plan.key)
	if leader {
		// Re-check the cache after winning leadership: the previous leader
		// may have Put its result and Forgotten the flight between our Get
		// miss and our Join, and a redundant search would burn a full
		// worker grant recomputing an entry already in store.
		if v, ok := s.cache.Get(plan.key); ok {
			flight.Abandon()
			res := cachedResponse(v, plan.key)
			if !async {
				return nil, nil, res, nil
			}
			job, err := s.sched.SubmitDone(plan.task, res)
			return job, nil, nil, err
		}
		task := plan.task
		key := plan.key
		// OnDone runs on every terminal path strictly before the job's
		// Done channel closes, so a waiter that saw the job finish — and
		// anyone it tells — is guaranteed a cache hit on re-ask. Only
		// clean successes are cached: canceled/timeout partials and
		// failures must re-run next time, not be served as final.
		task.OnDone = func(res any, jerr error) {
			if jerr == nil && res != nil {
				s.cache.Put(key, res, approxSize(res))
			}
			flight.Forget()
		}
		job, err := s.sched.Submit(task)
		if err != nil {
			// Queue full / shutdown: resolve the flight so followers (and
			// future leaders) are not stranded behind a job that never was.
			flight.Abandon()
			return nil, nil, nil, err
		}
		inf := &inflight{job: job}
		if async {
			inf.pollers.Store(1)
		} else {
			inf.waiters.Store(1) // the leader itself, counted before Publish
		}
		s.inflightJobs.Store(job.ID(), inf)
		go func() {
			<-job.Done()
			s.inflightJobs.Delete(job.ID())
		}()
		flight.Publish(inf)
		return job, inf, nil, nil
	}
	inf, ok := flight.Payload().(*inflight)
	if !ok || inf == nil {
		// The leader failed to admit its job; run independently.
		job, err := s.sched.Submit(plan.task)
		return job, nil, nil, err
	}
	if async {
		inf.pollers.Add(1)
	} else {
		inf.waiters.Add(1)
	}
	return inf.job, inf, nil, nil
}
