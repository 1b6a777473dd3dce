package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/scorpiondb/scorpion/internal/dispatch"
)

// layerRun is the outcome of one traced run.
type layerRun struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []failure
	tracePath string
	self      []selfRow
}

func pooled(rounds []*roundStats, class string) []float64 {
	var out []float64
	for _, rs := range rounds {
		out = append(out, rs.latencies(class)...)
	}
	return out
}

// scrapeAll reads the front server's counters and the workers' summed.
func scrapeAll(h *harness, w workload) (front, workers counters, err error) {
	f, ws := w.nodes()
	if front, err = h.scrape(f.url); err != nil {
		return nil, nil, err
	}
	workers = counters{}
	for _, n := range ws {
		c, err := h.scrape(n.url)
		if err != nil {
			return nil, nil, err
		}
		workers = workers.plus(c)
	}
	return front, workers, nil
}

// runTraced is the run that produces the per-layer metrics: rounds with
// benchmark-side spans on and the server's counters read before and after,
// as many rounds with tracing off to measure what tracing costs, a probe
// for the serving floor, then the ladder on the same fixture. Half of
// --seconds goes to the rounds.
func runTraced(name string, cfg runConfig) (*layerRun, error) {
	w, h, _, err := setupTimed(name, cfg, time.Now(), 1)
	if err != nil {
		return nil, err
	}
	defer h.close()
	defer w.close()

	// Plain and traced rounds come in mirrored pairs (plain, traced, traced,
	// plain, ...), so that neither set is the one that runs earlier on a
	// colder process; the server's counters are read around each traced
	// round only.
	front, _ := w.nodes()
	tr := newTracer()
	var plain, traced []*roundStats
	d, wd, after := counters{}, counters{}, counters{}
	var shards dispatch.Stats
	h.hashing.Store(false) // no digest is reported from this run
	pairs := int(math.Ceil(cfg.seconds / 4 / w.roundSeconds()))
	for r, cut := 0, false; r < 2*pairs && !cut; r++ {
		isTraced := r%4 == 1 || r%4 == 2
		var before, wBefore counters
		var dBefore dispatch.Stats
		if isTraced {
			if before, wBefore, err = scrapeAll(h, w); err != nil {
				return nil, err
			}
			dBefore = front.srv.DispatchStats()
			h.tracer = tr
		}
		rs, err := runRound(w, h, r, nil)
		h.tracer = nil
		if err != nil {
			return nil, err
		}
		cut = h.expired() // what the round did not send has failed; stop here
		if !isTraced {
			plain = append(plain, rs)
			continue
		}
		traced = append(traced, rs)
		var wAfter counters
		if after, wAfter, err = scrapeAll(h, w); err != nil {
			return nil, err
		}
		d, wd = d.plus(after.minus(before)), wd.plus(wAfter.minus(wBefore))
		dAfter := front.srv.DispatchStats()
		shards.Dispatched += dAfter.Dispatched - dBefore.Dispatched
		shards.Succeeded += dAfter.Succeeded - dBefore.Succeeded
		shards.Fallbacks += dAfter.Fallbacks - dBefore.Fallbacks
		shards.Retries += dAfter.Retries - dBefore.Retries
		shards.BytesOut += dAfter.BytesOut - dBefore.BytesOut
		shards.BytesIn += dAfter.BytesIn - dBefore.BytesIn
		shards.DispatchNanos += dAfter.DispatchNanos - dBefore.DispatchNanos
	}

	m := map[string]float64{}
	var seen []seenExplain
	for _, rs := range traced {
		for _, x := range rs.clients {
			seen = append(seen, x.seen...)
		}
	}
	col := func(f func(seenExplain) float64) []float64 {
		out := make([]float64, len(seen))
		for i, s := range seen {
			out[i] = f(s)
		}
		return out
	}
	sessions := 0
	for _, s := range seen {
		if s.session {
			sessions++
		}
	}
	explains := float64(len(seen))
	m["server.overhead_ms"] = median(col(func(s seenExplain) float64 { return s.clientMS })) - median(col(func(s seenExplain) float64 { return s.jobMS }))
	m["server.response_bytes"] = median(col(func(s seenExplain) float64 { return s.respBytes }))
	m["obs.trace_bytes"] = median(col(func(s seenExplain) float64 { return s.traceBytes }))
	m["influence.calls_per_explain"] = median(col(func(s seenExplain) float64 { return s.calls }))
	m["cache.session_reuse_ratio"] = ratio(float64(sessions), explains)

	m["jobs.queue_wait_ms"] = d.histMeanMS("scorpion_jobs_queue_wait_seconds")
	m["jobs.run_ms"] = d.histMeanMS("scorpion_jobs_run_seconds")
	m["jobs.rejected"] = d.sum("scorpion_jobs_rejected_total")
	hits, misses := d.sum("scorpion_cache_hits_total", `cache="results"`), d.sum("scorpion_cache_misses_total", `cache="results"`)
	m["cache.result_hit_ratio"] = ratio(hits, hits+misses)
	m["cache.entries"] = after.sum("scorpion_cache_entries")
	memoHits, memoMisses := d.sum("scorpion_scorer_memo_hits_total"), d.sum("scorpion_scorer_memo_misses_total")
	m["influence.memo_hit_ratio"] = ratio(memoHits, memoHits+memoMisses)
	warm, cold := d.sum("scorpion_stream_warm_total"), d.sum("scorpion_stream_cold_total")
	m["stream.warm_ratio"] = ratio(warm, warm+cold)
	m["stream.cold_fallbacks"] = cold

	m["shard.shards_dispatched_per_explain"] = ratio(float64(shards.Dispatched), explains)
	m["shard.coordinator_share"] = 1 - ratio(float64(shards.DispatchNanos)/1e6, sum(col(func(s seenExplain) float64 { return s.searchMS })))
	m["dispatch.fallbacks"] = float64(shards.Fallbacks)
	m["dispatch.retries"] = float64(shards.Retries)
	m["worker.busy_rejections"] = wd.sum("scorpion_worker_shard_searches_total", `status="busy"`)

	p50 := func(rounds []*roundStats) float64 {
		var v []float64
		for _, rs := range rounds {
			v = append(v, median(rs.latencies("explain")))
		}
		return median(v)
	}
	m["server.explain_p95_ms"] = quantile(pooled(append(plain[:len(plain):len(plain)], traced...), "explain"), 0.95)
	m["bench.trace_overhead_pct"] = 100 * ratio(p50(traced)-p50(plain), p50(plain))
	m["bench.samples"] = explains

	appendMS, hitMS := pooled(traced, "append"), pooled(traced, "hit")
	if body := w.probeBody(); body != nil {
		h.tracer = tr
		appendMS, hitMS, err = probe(h, front.url, w.ladderInput().main, *body)
		h.tracer = nil
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	m["server.append_roundtrip_ms"] = median(appendMS)
	m["server.append_rows_per_s"] = ratio(float64(len(appendMS)*appendBatchRows), sum(appendMS)/1e3)
	m["server.hit_roundtrip_ms"] = median(hitMS)

	rungs, err := runLadder(w.ladderInput(), tr)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for k, v := range rungs {
		m[k] = v
	}
	if shards.Succeeded > 0 {
		// The traffic crossed the fleet: its own counters outrank the
		// ladder's loopback rung.
		n := float64(shards.Succeeded)
		m["dispatch.ms_per_shard"] = float64(shards.DispatchNanos) / n / 1e6
		m["wire.task_bytes_per_shard"] = float64(shards.BytesOut) / n
		m["wire.result_bytes_per_shard"] = float64(shards.BytesIn) / n
		m["worker.search_ms"] = wd.histMeanMS("scorpion_worker_shard_seconds")
	}

	attempted := 0
	for _, rs := range append(plain, traced...) {
		attempted += rs.ops()
	}
	failed := h.failureCount()
	if failed > attempted {
		failed = attempted
	}
	m["bench.failed_share"] = ratio(float64(failed), float64(attempted))

	rows, ratios := selfTable(tr.spans, func(s *spanRec) bool {
		return s.Parent == 0 && (strings.HasPrefix(s.Name, "op:") || strings.HasPrefix(s.Name, "http:/explain:"))
	})
	m["bench.self_time_ratio"] = median(ratios)
	path, err := tr.write(cfg.outDir, name, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return &layerRun{metrics: m, attempted: attempted, failed: failed, failures: h.failures, tracePath: path, self: rows}, nil
}

// probe measures the serving floor on a workload whose traffic has neither
// appends nor cache hits: it uploads the workload's table under another
// name, asks the workload's request once so that the result cache holds
// it, repeats it (every repeat must be a hit), then appends batches.
func probe(h *harness, url string, ds *dataset, body explainBody) (appendMS, hitMS []float64, err error) {
	const name, n = "probe", 20
	sp := h.tracer.start(nil, "probe")
	defer sp.end()
	if err := h.upload(-1, url, name, ds.csv); err != nil {
		return nil, nil, err
	}
	body.Table, body.Cache = name, ""
	if _, _, err := h.explain(-1, sp, "http:/explain:fill", url, body.bytes()); err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		r, out, err := h.explain(-1, sp, "http:/explain:hit", url, body.bytes())
		if err != nil {
			return nil, nil, err
		}
		if !out.Cached {
			return nil, nil, fmt.Errorf("repeat %d of the probe's request was not a cache hit", i)
		}
		hitMS = append(hitMS, r.ms)
	}
	batch := batchOf(ds, appendBatchRows)
	for i := 0; i < n; i++ {
		r := h.do(-1, sp, "http:/tables/rows", "POST", url, "/tables/"+name+"/rows", "text/csv", batch)
		if r.err != nil || r.status != 200 {
			return nil, nil, fmt.Errorf("append %d: status %d %v %s", i, r.status, r.err, bytes.TrimSpace(r.body))
		}
		appendMS = append(appendMS, r.ms)
	}
	return appendMS, hitMS, h.dropTable(-1, url, name)
}
