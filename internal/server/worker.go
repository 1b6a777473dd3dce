package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/scorpiondb/scorpion/internal/dispatch"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/wire"
	"github.com/scorpiondb/scorpion/internal/worker"
)

// Remote shard worker mode (scorpion-server -worker) and coordinator-side
// peer wiring (scorpion-server -peers). A worker exposes POST
// /shards/search: one shard of a sharded explanation search, executed
// against the worker's own copy of the table and answered as a wire.Result.
// A coordinator configured with peers offers every shard of every sharded
// explain to that fleet first, falling back to the local search path per
// shard when the fleet can't answer.

// maxShardTaskBytes caps a POST /shards/search body; shard tasks are
// run-length provenance and knobs, so even 1M-row windows stay far below
// this.
const maxShardTaskBytes = 64 << 20

// EnableWorker registers the worker endpoint. Concurrent shard searches
// are capped by the scheduler's worker budget: each in-flight search
// holds one slot, and requests beyond the cap answer 429 immediately so
// the coordinator can try another peer instead of queueing blind into a
// busy process (queueing here could deadlock a fleet whose members
// coordinate for each other).
func (s *Server) EnableWorker() {
	budget := s.sched.Budget()
	if budget < 1 {
		budget = 1
	}
	s.workerSem = make(chan struct{}, budget)
	s.mux.HandleFunc("POST /shards/search", s.handleShardSearch)
}

// SetPeers configures coordinator-side dispatch: every sharded explain on
// this server offers its shards to the given worker URLs. shardTimeout
// bounds one dispatch attempt (0 = the dispatch default).
func (s *Server) SetPeers(peers []string, shardTimeout time.Duration, client *http.Client) error {
	pool, err := dispatch.NewPool(dispatch.Options{
		Peers:        peers,
		ShardTimeout: shardTimeout,
		Client:       client,
	})
	if err != nil {
		return err
	}
	s.dispatch = pool
	return nil
}

// DispatchStats exposes the peer pool's counters (zero when no peers are
// configured).
func (s *Server) DispatchStats() dispatch.Stats {
	if s.dispatch == nil {
		return dispatch.Stats{}
	}
	return s.dispatch.Stats()
}

func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	status := func(reason string) {
		s.reg.Counter("scorpion_worker_shard_searches_total", "status", reason).Inc()
	}
	var t wire.Task
	body := http.MaxBytesReader(w, r.Body, maxShardTaskBytes)
	if err := json.NewDecoder(body).Decode(&t); err != nil {
		status("bad_request")
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode shard task: %w", err))
		return
	}
	if t.Version != wire.Version {
		status("version_mismatch")
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("wire version %d not supported (worker speaks %d)", t.Version, wire.Version))
		return
	}
	entry, err := s.resolveTable(t.Table)
	if err != nil {
		status("no_table")
		writeError(w, http.StatusNotFound, err)
		return
	}
	select {
	case s.workerSem <- struct{}{}:
		defer func() { <-s.workerSem }()
	default:
		status("busy")
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("worker at capacity (%d shard searches in flight)", cap(s.workerSem)))
		return
	}

	ctx := obs.ContextWithRegistry(r.Context(), s.reg)
	if s.log != nil {
		ctx = obs.ContextWithLogger(ctx, s.log)
	}
	span := obs.NewSpan("worker.shard_search")
	span.SetAttr("table", t.Table)
	span.SetAttr("window_lo", t.WindowLo)
	span.SetAttr("window_hi", t.WindowHi)
	span.SetAttr("algorithm", t.Algorithm)
	ctx = obs.ContextWithSpan(ctx, span)
	start := time.Now()
	res, err := worker.Run(ctx, entry.Table, &t, s.sched.Budget())
	span.End()
	s.reg.Histogram("scorpion_worker_shard_seconds", nil).Observe(time.Since(start).Seconds())
	if err != nil {
		var mismatch *worker.ErrTableMismatch
		switch {
		case errors.As(err, &mismatch):
			status("table_mismatch")
			writeError(w, http.StatusConflict, err)
		case r.Context().Err() != nil:
			// The coordinator gave up (per-shard timeout or cancelled
			// search); the response goes nowhere, but account for it.
			status("cancelled")
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			status("error")
			writeError(w, http.StatusInternalServerError, err)
		}
		if s.log != nil {
			s.log.Warn("worker: shard search failed", "table", t.Table, "error", err)
		}
		return
	}
	status("ok")
	writeJSON(w, http.StatusOK, res)
}
