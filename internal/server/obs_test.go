package server

// Observability-surface suite: the introspection endpoints (/healthz,
// /version, /metrics, /debug/vars), request-id assignment/echo and its
// propagation into job views, the queued_ms/running_ms split, and the
// job trace timeline (present in job results, absent from cache hits).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func obsExplainBody() ExplainRequest {
	c := 1.0
	return ExplainRequest{
		SQL:              "SELECT avg(temp), time FROM sensors GROUP BY time",
		Outliers:         []string{"12PM", "1PM"},
		AllOthersHoldOut: true,
		Direction:        "high",
		C:                &c,
	}
}

func TestHealthzEndpoint(t *testing.T) {
	srv := New(testTable(t))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, body %s", rec.Code, rec.Body)
	}
	var out struct {
		Status string `json:"status"`
		Tables int    `json:"tables"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" || out.Tables != 1 {
		t.Errorf("healthz body = %+v", out)
	}

	srv.Close()
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz after Close = %d, want 503", rec.Code)
	}
}

func TestVersionEndpoint(t *testing.T) {
	srv := New(testTable(t))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/version", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("version = %d, body %s", rec.Code, rec.Body)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if goVer, _ := out["go"].(string); !strings.HasPrefix(goVer, "go") {
		t.Errorf("version go = %v", out["go"])
	}
	if _, ok := out["gomaxprocs"].(float64); !ok {
		t.Errorf("version gomaxprocs = %v", out["gomaxprocs"])
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := New(testTable(t))
	// Generate some traffic first so the HTTP families exist.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/tables", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("tables = %d", rec.Code)
	}

	// And one DT explain, so the Merger's counters exist.
	body := obsExplainBody()
	body.Algorithm = "dt"
	if rec := postJSON(t, srv, "/explain", body); rec.Code != http.StatusOK {
		t.Fatalf("explain = %d, body %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d, body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`scorpion_http_requests_total{method="GET",route="GET /tables",status="200"} 1`,
		"# TYPE scorpion_http_request_seconds histogram",
		`scorpion_cache_hits_total{cache="results"} 0`,
		"scorpion_jobs_queue_depth 0",
		"scorpion_jobs_worker_budget",
		`scorpion_merge_attempts_total{algo="dt"}`,
		"scorpion_merge_box_fallbacks_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q; got:\n%s", want, text)
		}
	}
}

func TestDebugVarsEndpoint(t *testing.T) {
	srv := New(testTable(t))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("debug/vars = %d", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("debug/vars is not JSON: %v; body %s", err, rec.Body)
	}
	if _, ok := out["scorpion_jobs_queue_depth"]; !ok {
		t.Errorf("debug/vars missing scorpion_jobs_queue_depth: %v", out)
	}
}

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	srv := New(testTable(t))

	// No client id: one is minted and echoed.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/tables", nil))
	if got := rec.Header().Get("X-Request-ID"); got == "" {
		t.Error("no X-Request-ID assigned")
	}

	// A client id is honored verbatim.
	req := httptest.NewRequest("GET", "/tables", nil)
	req.Header.Set("X-Request-ID", "client-abc")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "client-abc" {
		t.Errorf("X-Request-ID = %q, want client-abc", got)
	}
}

// TestJobViewTimingsAndRequestID is the regression test for the
// queued_ms/running_ms split: a finished job's view must report both, the
// submitting request's id must ride into the view, and the result must
// carry the phase-trace timeline.
func TestJobViewTimingsAndRequestID(t *testing.T) {
	srv := New(testTable(t))
	body, _ := json.Marshal(obsExplainBody())
	req := httptest.NewRequest("POST", "/jobs", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "trace-me")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", rec.Code, rec.Body)
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}

	var view map[string]any
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+accepted.JobID, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("poll = %d, body %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
			t.Fatal(err)
		}
		if view["status"] == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %v", view)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if view["request_id"] != "trace-me" {
		t.Errorf("request_id = %v, want trace-me", view["request_id"])
	}
	if _, ok := view["queued_ms"].(float64); !ok {
		t.Errorf("queued_ms missing or not a number: %v", view["queued_ms"])
	}
	run, ok := view["running_ms"].(float64)
	if !ok || run < 0 {
		t.Errorf("running_ms = %v, want a non-negative number", view["running_ms"])
	}
	result, ok := view["result"].(map[string]any)
	if !ok {
		t.Fatalf("result missing: %v", view)
	}
	trace, ok := result["trace"].([]any)
	if !ok || len(trace) != 1 {
		t.Fatalf("trace = %v, want a one-element timeline", result["trace"])
	}
	rootNode, ok := trace[0].(map[string]any)
	if !ok || rootNode["name"] != "explain" {
		t.Errorf("trace root = %v, want an explain span", trace[0])
	}
	if attrs, ok := rootNode["attrs"].(map[string]any); !ok || attrs["request_id"] != "trace-me" {
		t.Errorf("trace root attrs = %v, want request_id trace-me", rootNode["attrs"])
	}
	children, _ := rootNode["children"].([]any)
	var names []string
	for _, c := range children {
		if m, ok := c.(map[string]any); ok {
			names = append(names, m["name"].(string))
		}
	}
	// This request routes through a session, whose trace always has
	// search + rank (a warm DT-path run skips the plan phase; the one-shot
	// path's plan span is pinned by the root package's trace suite).
	joined := strings.Join(names, ",")
	for _, phase := range []string{"search", "rank"} {
		if !strings.Contains(joined, phase) {
			t.Errorf("trace children = %v, missing %q", names, phase)
		}
	}
}

// TestCachedResponseOmitsTrace: a cache hit must not replay the original
// run's phase timeline as if the hit had executed it.
func TestCachedResponseOmitsTrace(t *testing.T) {
	srv := New(testTable(t))
	first := postJSON(t, srv, "/explain", obsExplainBody())
	if first.Code != http.StatusOK {
		t.Fatalf("first = %d, body %s", first.Code, first.Body)
	}
	var cold map[string]any
	if err := json.Unmarshal(first.Body.Bytes(), &cold); err != nil {
		t.Fatal(err)
	}
	if _, ok := cold["trace"]; !ok {
		t.Fatal("cold run has no trace")
	}

	second := postJSON(t, srv, "/explain", obsExplainBody())
	if second.Code != http.StatusOK {
		t.Fatalf("second = %d, body %s", second.Code, second.Body)
	}
	var hit map[string]any
	if err := json.Unmarshal(second.Body.Bytes(), &hit); err != nil {
		t.Fatal(err)
	}
	if hit["cached"] != true {
		t.Fatalf("second run not served from cache: %v", hit)
	}
	if _, ok := hit["trace"]; ok {
		t.Error("cache hit carries a stale trace")
	}
}
