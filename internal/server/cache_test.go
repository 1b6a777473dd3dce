package server

// Tests for the server-level result cache: repeat hits, concurrent
// coalescing (race-gated via CI's -race run of this package), catalog
// invalidation, §8.3.3 session reuse across c values, the cache endpoints,
// and the explicit-zero knob round-trip.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scorpiondb/scorpion/internal/jobs"
)

// explainBody is the canonical request the cache tests repeat.
func explainBody() map[string]any {
	return map[string]any{
		"sql":                "SELECT avg(v), grp FROM t GROUP BY grp",
		"outliers":           []string{"g2", "g3"},
		"all_others_holdout": true,
	}
}

// explainResult decodes the fields these tests assert on.
type explainResult struct {
	Algorithm       string            `json:"algorithm"`
	ScorerCalls     int64             `json:"scorer_calls"`
	Explanations    []ExplanationJSON `json:"explanations"`
	Cached          *bool             `json:"cached"`
	CacheKey        string            `json:"cache_key"`
	ReusedPartition bool              `json:"reused_partition"`
	Shards          int               `json:"shards"`
}

func postExplain(t *testing.T, srv *Server, body map[string]any) explainResult {
	t.Helper()
	rec := postJSON(t, srv, "/explain", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain = %d (%s)", rec.Code, rec.Body)
	}
	var out explainResult
	decodeJSON(t, rec, &out)
	return out
}

// cacheStats fetches GET /cache.
func cacheStats(t *testing.T, srv *Server) map[string]any {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/cache", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /cache = %d", rec.Code)
	}
	var out map[string]any
	decodeJSON(t, rec, &out)
	return out
}

// startedJobs counts jobs that actually ran (cache-hit jobs are terminal
// without ever starting).
func startedJobs(t *testing.T, srv *Server) int {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs", nil))
	var out struct {
		Jobs []map[string]any `json:"jobs"`
	}
	decodeJSON(t, rec, &out)
	n := 0
	for _, j := range out.Jobs {
		if _, ok := j["started"]; ok {
			n++
		}
	}
	return n
}

// TestExplainCacheHitServesRepeat is the core acceptance criterion: an
// identical repeated /explain is served from the cache — "cached": true,
// identical explanations, zero new scorer calls (no second search job
// ever starts). So is a request that resolves to the same Plan: an
// explicit default equals an unset knob, and label order is irrelevant.
func TestExplainCacheHitServesRepeat(t *testing.T) {
	srv := New(bigTable(t))
	t.Cleanup(srv.Close)

	first := postExplain(t, srv, explainBody())
	if first.Cached == nil || *first.Cached {
		t.Fatalf("first response cached = %v, want false", first.Cached)
	}
	if first.CacheKey == "" {
		t.Fatal("first response has no cache_key")
	}
	second := postExplain(t, srv, explainBody())
	if second.Cached == nil || !*second.Cached {
		t.Fatalf("repeat response cached = %v, want true", second.Cached)
	}
	if second.CacheKey != first.CacheKey {
		t.Errorf("cache_key changed across identical requests: %q vs %q", first.CacheKey, second.CacheKey)
	}
	for name, knobs := range map[string]map[string]any{
		"explicit defaults":  {"lambda": 0.5, "c": 0.2, "top_k": 5},
		"outliers reordered": {"outliers": []string{"g3", "g2"}},
	} {
		body := explainBody()
		for k, v := range knobs {
			body[k] = v
		}
		if same := postExplain(t, srv, body); same.CacheKey != first.CacheKey || same.Cached == nil || !*same.Cached {
			t.Errorf("%s: key %q cached %v, want a hit on %q", name, same.CacheKey, same.Cached, first.CacheKey)
		}
	}
	if len(second.Explanations) == 0 || len(second.Explanations) != len(first.Explanations) {
		t.Fatalf("cached explanations = %d, first = %d", len(second.Explanations), len(first.Explanations))
	}
	for i := range first.Explanations {
		if first.Explanations[i] != second.Explanations[i] {
			t.Errorf("explanation %d differs: %+v vs %+v", i, first.Explanations[i], second.Explanations[i])
		}
	}
	// Zero new scorer calls: only ONE job ever started a search.
	if n := startedJobs(t, srv); n != 1 {
		t.Errorf("%d jobs started, want 1 (the repeat must not search)", n)
	}
	stats := cacheStats(t, srv)
	results, _ := stats["results"].(map[string]any)
	if results == nil || results["hits"].(float64) < 1 {
		t.Errorf("cache stats after hit = %v", stats)
	}

	held := func(order ...string) explainResult {
		body := explainBody()
		body["all_others_holdout"], body["holdouts"] = false, order
		return postExplain(t, srv, body)
	}
	if a, b := held("g0", "g1"), held("g1", "g0"); b.CacheKey != a.CacheKey || b.Cached == nil || !*b.Cached {
		t.Errorf("hold-outs reordered: key %q cached %v, want a hit on %q", b.CacheKey, b.Cached, a.CacheKey)
	}
}

// TestExplainCoalescesConcurrentDuplicates runs N identical synchronous
// requests concurrently: exactly one search job (and thus one scorer) may
// run; everyone still gets the full answer. Race-gated in CI.
func TestExplainCoalescesConcurrentDuplicates(t *testing.T) {
	srv := New(bigTable(t))
	t.Cleanup(srv.Close)

	const n = 8
	results := make([]explainResult, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = postExplain(t, srv, explainBody())
		}(i)
	}
	close(start)
	wg.Wait()

	if got := startedJobs(t, srv); got != 1 {
		t.Fatalf("%d search jobs started for %d identical concurrent requests, want exactly 1", got, n)
	}
	for i := 1; i < n; i++ {
		if len(results[i].Explanations) != len(results[0].Explanations) {
			t.Fatalf("request %d got %d explanations, request 0 got %d",
				i, len(results[i].Explanations), len(results[0].Explanations))
		}
		for k := range results[0].Explanations {
			if results[i].Explanations[k] != results[0].Explanations[k] {
				t.Errorf("request %d explanation %d differs", i, k)
			}
		}
	}
	stats := cacheStats(t, srv)
	results0, _ := stats["results"].(map[string]any)
	if results0 == nil {
		t.Fatalf("no results stats: %v", stats)
	}
	coalesced := int(results0["coalesced"].(float64))
	hits := int(results0["hits"].(float64))
	if coalesced+hits != n-1 {
		t.Errorf("coalesced %d + hits %d != %d duplicates", coalesced, hits, n-1)
	}
}

// TestCacheInvalidationOnTableChange proves upload-over and unload both
// invalidate a table's entries: the same request against replaced data is
// a fresh search, never a stale hit.
func TestCacheInvalidationOnTableChange(t *testing.T) {
	srv := multiTableServer(t, jobs.Options{})
	upload := func(csv string) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/tables?name=up", strings.NewReader(csv)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("upload = %d (%s)", rec.Code, rec.Body)
		}
	}
	body := map[string]any{
		"table":              "up",
		"sql":                "SELECT avg(v), g FROM up GROUP BY g",
		"outliers":           []string{"b"},
		"all_others_holdout": true,
	}
	upload("g,a,v\na,x,1\na,y,2\nb,x,9\nb,y,8\n")
	first := postExplain(t, srv, body)
	if first.Cached == nil || *first.Cached {
		t.Fatalf("first = %+v", first)
	}
	if got := postExplain(t, srv, body); got.Cached == nil || !*got.Cached {
		t.Fatal("repeat against unchanged table was not a hit")
	}

	// Replace the table by uploading over the same name: the next identical
	// request must re-search (different generation ⇒ different key).
	upload("g,a,v\na,x,5\na,y,6\nb,x,70\nb,y,60\n")
	replaced := postExplain(t, srv, body)
	if replaced.Cached == nil || *replaced.Cached {
		t.Fatal("request after table replace served a stale cached result")
	}
	if replaced.CacheKey == first.CacheKey {
		t.Error("cache key did not change with the table's generation")
	}

	// Unload, re-upload, and ask again: still no stale hit.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/tables/up", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("unload = %d", rec.Code)
	}
	upload("g,a,v\na,x,1\na,y,2\nb,x,9\nb,y,8\n")
	if got := postExplain(t, srv, body); got.Cached == nil || *got.Cached {
		t.Fatal("request after unload+reload served a stale cached result")
	}

	stats := cacheStats(t, srv)
	results, _ := stats["results"].(map[string]any)
	if results == nil || results["invalidations"].(float64) < 1 {
		t.Errorf("no invalidations recorded: %v", stats)
	}
}

// TestCSweepReusesSessionPartitioning is the HTTP half of the §8.3.3
// acceptance criterion: a repeat differing only in c reuses the session's
// DT partitioning — no re-partition, strictly fewer scorer calls than a
// cold run at the same c.
func TestCSweepReusesSessionPartitioning(t *testing.T) {
	srv := New(bigTable(t))
	t.Cleanup(srv.Close)

	body := explainBody()
	body["algorithm"] = "dt"
	body["c"] = 1.0
	first := postExplain(t, srv, body)
	if first.ReusedPartition {
		t.Fatal("cold run claims a reused partitioning")
	}

	body["c"] = 0.5
	warm := postExplain(t, srv, body)
	if warm.Cached != nil && *warm.Cached {
		t.Fatal("different c must not be a result-cache hit")
	}
	if !warm.ReusedPartition {
		t.Fatal("c-sweep repeat did not reuse the session's partitioning")
	}

	cold := explainBody()
	cold["algorithm"] = "dt"
	cold["c"] = 0.5
	cold["cache"] = "bypass" // forces a sessionless cold search
	coldRes := postExplain(t, srv, cold)
	if coldRes.ReusedPartition {
		t.Fatal("bypass run reused a session")
	}
	if warm.ScorerCalls >= coldRes.ScorerCalls {
		t.Errorf("warm c-sweep spent %d scorer calls, cold %d — partition reuse saved nothing",
			warm.ScorerCalls, coldRes.ScorerCalls)
	}
}

// TestExplicitZeroKnobsSurviveHTTP is the round-trip half of the
// explicit-zero fix: {"lambda": 0} flips every influence non-positive
// (objective −(1−λ)·penalty), and {"c": 0} yields different influence
// values than the default c — under the old bug both zeros were silently
// replaced by the defaults and the responses were identical.
func TestExplicitZeroKnobsSurviveHTTP(t *testing.T) {
	srv := New(bigTable(t))
	t.Cleanup(srv.Close)

	withDefaults := postExplain(t, srv, explainBody())
	if len(withDefaults.Explanations) == 0 || withDefaults.Explanations[0].Influence <= 0 {
		t.Fatalf("default run top influence = %+v, want positive", withDefaults.Explanations)
	}

	lambdaZero := explainBody()
	lambdaZero["lambda"] = 0.0
	lz := postExplain(t, srv, lambdaZero)
	for _, e := range lz.Explanations {
		if e.Influence > 0 {
			t.Fatalf("lambda 0: influence %v > 0 for %q — the zero was replaced by the default", e.Influence, e.Where)
		}
	}

	cZero := explainBody()
	cZero["c"] = 0.0
	cDefault := explainBody()
	cDefault["c"] = 0.2
	z := postExplain(t, srv, cZero)
	d := postExplain(t, srv, cDefault)
	if len(z.Explanations) == 0 || len(d.Explanations) == 0 {
		t.Fatal("no explanations")
	}
	// The keys agree: an explicit zero is its own entry, an explicit
	// default is the unset request's.
	if lz.CacheKey == withDefaults.CacheKey || z.CacheKey == withDefaults.CacheKey {
		t.Errorf("an explicit zero shares the default key %q", withDefaults.CacheKey)
	}
	if d.CacheKey != withDefaults.CacheKey || d.Cached == nil || !*d.Cached {
		t.Errorf("explicit c 0.2: key %q cached %v, want a hit on the default key %q", d.CacheKey, d.Cached, withDefaults.CacheKey)
	}
	if z.Explanations[0].Influence == d.Explanations[0].Influence {
		t.Errorf("c 0 and c 0.2 produced identical top influence %v — the explicit zero did not reach the scorer",
			z.Explanations[0].Influence)
	}
}

// TestCacheBypassAndClear covers the operator controls: "cache": "bypass"
// runs cold and stores nothing; DELETE /cache empties the store so the
// next identical request searches again.
func TestCacheBypassAndClear(t *testing.T) {
	srv := New(bigTable(t))
	t.Cleanup(srv.Close)

	bypass := explainBody()
	bypass["cache"] = "bypass"
	if got := postExplain(t, srv, bypass); got.Cached != nil || got.CacheKey != "" {
		t.Fatalf("bypass response carries cache fields: %+v", got)
	}
	if got := postExplain(t, srv, bypass); got.Cached != nil {
		t.Fatal("second bypass was served from cache")
	}
	if n := startedJobs(t, srv); n != 2 {
		t.Fatalf("%d jobs started, want 2 (bypass must not coalesce or hit)", n)
	}

	// Populate, then clear.
	postExplain(t, srv, explainBody())
	if got := postExplain(t, srv, explainBody()); got.Cached == nil || !*got.Cached {
		t.Fatal("no hit before clear")
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/cache", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE /cache = %d", rec.Code)
	}
	var cleared struct {
		Cleared int `json:"cleared"`
	}
	decodeJSON(t, rec, &cleared)
	if cleared.Cleared < 1 {
		t.Errorf("cleared = %d, want >= 1", cleared.Cleared)
	}
	if got := postExplain(t, srv, explainBody()); got.Cached == nil || *got.Cached {
		t.Fatal("request after clear was still a hit")
	}
}

// TestCacheDisabled checks ConfigureCache(-1) turns the whole layer off:
// no cache fields in responses and /cache reports disabled.
func TestCacheDisabled(t *testing.T) {
	srv := New(testTable(t))
	srv.ConfigureCache(-1)
	t.Cleanup(srv.Close)

	body := map[string]any{
		"sql":                "SELECT avg(temp), time FROM sensors GROUP BY time",
		"outliers":           []string{"12PM", "1PM"},
		"all_others_holdout": true,
	}
	if got := postExplain(t, srv, body); got.Cached != nil {
		t.Fatalf("disabled cache still decorated the response: %+v", got)
	}
	postExplain(t, srv, body)
	if n := startedJobs(t, srv); n != 2 {
		t.Errorf("%d jobs started, want 2 with caching disabled", n)
	}
	stats := cacheStats(t, srv)
	if enabled, _ := stats["enabled"].(bool); enabled {
		t.Errorf("GET /cache = %v, want enabled false", stats)
	}
}

// TestAsyncCoalescingSharesJobID checks the idempotency-key behavior: an
// async duplicate of an in-flight request returns the SAME job id, and an
// async duplicate of a finished one returns an instantly-"done" job.
func TestAsyncCoalescingSharesJobID(t *testing.T) {
	srv := New(bigTable(t))
	t.Cleanup(srv.Close)

	submit := func() (string, string) {
		rec := postJSON(t, srv, "/jobs", slowExplainBody())
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit = %d (%s)", rec.Code, rec.Body)
		}
		var out struct {
			JobID  string `json:"job_id"`
			Status string `json:"status"`
		}
		decodeJSON(t, rec, &out)
		return out.JobID, out.Status
	}
	id1, _ := submit()
	id2, _ := submit()
	if id1 != id2 {
		t.Fatalf("duplicate async submissions got distinct jobs %s / %s", id1, id2)
	}
	// Two async clients share the job, so the first DELETE only retires
	// one poller ("shared" refusal) and the second actually cancels — one
	// client's cancel must not kill a search the other still polls.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/"+id1, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("first cancel = %d", rec.Code)
	}
	var sharedOut struct {
		Shared string `json:"shared"`
	}
	decodeJSON(t, rec, &sharedOut)
	if sharedOut.Shared != id1 {
		t.Fatalf("first DELETE of a twice-polled job = %s, want shared refusal", rec.Body)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/"+id1, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("second cancel = %d", rec.Code)
	}
	// The canceled (partial) result must NOT be cached, so a later
	// submission admits a fresh job.
	pollJob(t, srv, id1, 30*time.Second, func(v map[string]any) bool {
		s, _ := v["status"].(string)
		return s == "canceled"
	})
	id3, _ := submit()
	if id3 == id1 {
		t.Fatal("submission after cancel coalesced onto the dead job")
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/"+id3, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("cleanup cancel = %d", rec.Code)
	}
}

// TestDeleteSharedJobRefusesCancel proves an explicit DELETE /jobs/{id}
// cannot kill a search a synchronous client still waits on: the server
// answers "shared" and the job runs on; once the waiter leaves, the
// cancel goes through.
func TestDeleteSharedJobRefusesCancel(t *testing.T) {
	srv := New(bigTable(t))
	t.Cleanup(srv.Close)

	data, err := json.Marshal(slowExplainBody())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		req := httptest.NewRequest("POST", "/explain", bytes.NewReader(data)).WithContext(ctx)
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}()

	// Find the running job the sync handler waits on.
	var id string
	deadline := time.Now().Add(30 * time.Second)
	for id == "" {
		if time.Now().After(deadline) {
			t.Fatal("no running job appeared")
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs", nil))
		var out struct {
			Jobs []map[string]any `json:"jobs"`
		}
		decodeJSON(t, rec, &out)
		for _, j := range out.Jobs {
			if j["status"] == "running" {
				id = j["id"].(string)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("DELETE shared = %d (%s)", rec.Code, rec.Body)
	}
	var out map[string]any
	decodeJSON(t, rec, &out)
	if out["shared"] != id {
		t.Fatalf("DELETE on a waited-on job = %v, want shared refusal", out)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+id, nil))
	var view map[string]any
	decodeJSON(t, rec, &view)
	if view["status"] != "running" {
		t.Fatalf("job was canceled despite the shared refusal: %v", view["status"])
	}

	// The waiter disconnects; its own cancel path winds the job down.
	cancel()
	select {
	case <-handlerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("sync handler did not return after disconnect")
	}
	pollJob(t, srv, id, 30*time.Second, func(v map[string]any) bool {
		s, _ := v["status"].(string)
		return s == "canceled"
	})
}
