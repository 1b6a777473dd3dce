package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scorpiondb/scorpion/internal/catalog"
	"github.com/scorpiondb/scorpion/internal/jobs"
)

// multiTableServer builds a server hosting the sensors table twice under
// distinct names, with the given scheduler options.
func multiTableServer(t *testing.T, opts jobs.Options) *Server {
	t.Helper()
	cat := catalog.New()
	if _, err := cat.Add("sensors", testTable(t), "builtin"); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.Add("sensors2", testTable(t), "builtin"); err != nil {
		t.Fatal(err)
	}
	srv := NewCatalog(cat, jobs.New(opts))
	t.Cleanup(srv.Close)
	return srv
}

func decodeJSON(t *testing.T, rec *httptest.ResponseRecorder, out any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("bad JSON %q: %v", rec.Body.String(), err)
	}
}

// TestMultiTableServing proves one process answers /schema, /query and
// /explain for two different tables by name — the catalog acceptance
// criterion.
func TestMultiTableServing(t *testing.T) {
	srv := multiTableServer(t, jobs.Options{})

	// /tables lists both.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/tables", nil))
	var tablesOut struct {
		Tables []tableJSON `json:"tables"`
	}
	decodeJSON(t, rec, &tablesOut)
	if len(tablesOut.Tables) != 2 || tablesOut.Tables[0].Name != "sensors" || tablesOut.Tables[1].Name != "sensors2" {
		t.Fatalf("tables = %+v", tablesOut.Tables)
	}

	// /schema requires the name now that two tables exist.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/schema", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("ambiguous /schema = %d", rec.Code)
	}
	for _, name := range []string{"sensors", "sensors2"} {
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/schema?table="+name, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/schema?table=%s = %d (%s)", name, rec.Code, rec.Body)
		}
		var schemaOut struct {
			Table string `json:"table"`
			Rows  int    `json:"rows"`
		}
		decodeJSON(t, rec, &schemaOut)
		if schemaOut.Table != name || schemaOut.Rows != 9 {
			t.Errorf("schema = %+v", schemaOut)
		}

		// /query and /explain against each table by name.
		rec = postJSON(t, srv, "/query", QueryRequest{
			Table: name,
			SQL:   "SELECT avg(temp), time FROM sensors GROUP BY time",
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("query(%s) = %d (%s)", name, rec.Code, rec.Body)
		}
		rec = postJSON(t, srv, "/explain", ExplainRequest{
			Table:            name,
			SQL:              "SELECT avg(temp), time FROM sensors GROUP BY time",
			Outliers:         []string{"12PM", "1PM"},
			AllOthersHoldOut: true,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("explain(%s) = %d (%s)", name, rec.Code, rec.Body)
		}
	}

	// An unknown name is a 404.
	rec = postJSON(t, srv, "/query", QueryRequest{Table: "nope", SQL: "SELECT avg(temp), time FROM s GROUP BY time"})
	if rec.Code != http.StatusNotFound {
		t.Errorf("query(nope) = %d", rec.Code)
	}
}

// TestTableUploadAndUnload covers the catalog's HTTP write path.
func TestTableUploadAndUnload(t *testing.T) {
	srv := multiTableServer(t, jobs.Options{})
	csv := "g,v\na,1\na,2\nb,9\n"
	req := httptest.NewRequest("POST", "/tables?name=uploaded", strings.NewReader(csv))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("upload = %d (%s)", rec.Code, rec.Body)
	}
	var out struct {
		Table tableJSON `json:"table"`
	}
	decodeJSON(t, rec, &out)
	if out.Table.Rows != 3 || out.Table.Source != "upload" {
		t.Errorf("uploaded table = %+v", out.Table)
	}

	rec = postJSON(t, srv, "/query", QueryRequest{Table: "uploaded", SQL: "SELECT avg(v), g FROM t GROUP BY g"})
	if rec.Code != http.StatusOK {
		t.Fatalf("query(uploaded) = %d (%s)", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/tables/uploaded", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("unload = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/tables/uploaded", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("second unload = %d", rec.Code)
	}
	// Missing ?name= is rejected.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/tables", strings.NewReader(csv)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("nameless upload = %d", rec.Code)
	}

	// Oversized bodies are shed with 413 before they can exhaust memory.
	srv.MaxUploadBytes = 8
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/tables?name=huge", strings.NewReader(csv)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload = %d (%s)", rec.Code, rec.Body)
	}
}

// TestExplainWorkersValidation covers the workers satellite: values below
// -1 are a 400, and -1 resolves to GOMAXPROCS (same result as serial).
func TestExplainWorkersValidation(t *testing.T) {
	srv := New(testTable(t))
	t.Cleanup(srv.Close)
	base := map[string]any{
		"sql":                "SELECT avg(temp), time FROM sensors GROUP BY time",
		"outliers":           []string{"12PM", "1PM"},
		"all_others_holdout": true,
	}
	for _, bad := range []int{-2, -100} {
		base["workers"] = bad
		rec := postJSON(t, srv, "/explain", base)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("workers=%d status = %d (%s)", bad, rec.Code, rec.Body)
		}
	}
	base["workers"] = -1
	rec := postJSON(t, srv, "/explain", base)
	if rec.Code != http.StatusOK {
		t.Errorf("workers=-1 status = %d (%s)", rec.Code, rec.Body)
	}
}

// TestDTAndMCJobsGrantedOneWorker: an unsharded DT or MC job runs on one
// goroutine, so admission grants it one worker whatever it asks, and its
// job view says so; Auto, whose algorithm is chosen when the job runs,
// keeps its ask.
func TestDTAndMCJobsGrantedOneWorker(t *testing.T) {
	srv := multiTableServer(t, jobs.Options{Budget: 2})
	ask := min(2, runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		algo, agg string
		want      int
	}{{"dt", "avg", 1}, {"mc", "sum", 1}, {"auto", "avg", ask}} {
		rec := postJSON(t, srv, "/jobs", map[string]any{
			"table":              "sensors",
			"sql":                "SELECT " + tc.agg + "(temp), time FROM sensors GROUP BY time",
			"outliers":           []string{"12PM", "1PM"},
			"all_others_holdout": true,
			"algorithm":          tc.algo,
			"workers":            2,
		})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s: submit = %d (%s)", tc.algo, rec.Code, rec.Body)
		}
		var accepted struct {
			JobID string `json:"job_id"`
		}
		decodeJSON(t, rec, &accepted)
		view := pollJob(t, srv, accepted.JobID, 30*time.Second, func(v map[string]any) bool {
			return v["status"] == "done"
		})
		if got := view["workers"]; got != float64(tc.want) {
			t.Errorf("%s asking 2 workers: job view workers = %v, want %d", tc.algo, got, tc.want)
		}
	}
}

// pollJob GETs a job until pred is satisfied or the deadline passes.
func pollJob(t *testing.T, srv *Server, id string, deadline time.Duration, pred func(map[string]any) bool) map[string]any {
	t.Helper()
	stop := time.Now().Add(deadline)
	for {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+id, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %s = %d (%s)", id, rec.Code, rec.Body)
		}
		var view map[string]any
		decodeJSON(t, rec, &view)
		if pred(view) {
			return view
		}
		if time.Now().After(stop) {
			t.Fatalf("job %s never reached the wanted state; last view: %v", id, view)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// slowExplainBody is a NAIVE search over bigTable that runs for minutes —
// long enough that polls observe it mid-flight.
func slowExplainBody() map[string]any {
	return map[string]any{
		"sql":                "SELECT avg(v), grp FROM t GROUP BY grp",
		"outliers":           []string{"g2", "g3"},
		"all_others_holdout": true,
		"algorithm":          "naive",
	}
}

// TestAsyncJobLifecycle is the jobs acceptance criterion end to end:
// enqueue, observe queued→running, poll best-so-far mid-search, cancel,
// and read the partial result off the terminal job.
func TestAsyncJobLifecycle(t *testing.T) {
	srv := New(bigTable(t))
	srv.ProgressInterval = 5 * time.Millisecond
	t.Cleanup(srv.Close)

	rec := postJSON(t, srv, "/explain?mode=async", slowExplainBody())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit = %d (%s)", rec.Code, rec.Body)
	}
	var accepted struct {
		JobID string `json:"job_id"`
		Poll  string `json:"poll"`
	}
	decodeJSON(t, rec, &accepted)
	if accepted.JobID == "" || accepted.Poll != "/jobs/"+accepted.JobID {
		t.Fatalf("accepted = %+v", accepted)
	}

	// Poll until a best-so-far snapshot with at least one predicate shows
	// up mid-search.
	view := pollJob(t, srv, accepted.JobID, 30*time.Second, func(v map[string]any) bool {
		prog, ok := v["progress"].(map[string]any)
		if !ok {
			return false
		}
		best, ok := prog["best"].([]any)
		return ok && len(best) > 0
	})
	if got := view["status"]; got != "running" {
		t.Fatalf("status with progress = %v", got)
	}
	if _, hasResult := view["result"]; hasResult {
		t.Fatal("running job already has a final result")
	}
	best := view["progress"].(map[string]any)["best"].([]any)
	first := best[0].(map[string]any)
	if first["where"] == "" {
		t.Fatalf("best-so-far entry = %v", first)
	}

	// Cancel it; the job winds down to "canceled" with a partial result.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/"+accepted.JobID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel = %d (%s)", rec.Code, rec.Body)
	}
	view = pollJob(t, srv, accepted.JobID, 30*time.Second, func(v map[string]any) bool {
		return v["status"] == "canceled"
	})
	result, ok := view["result"].(map[string]any)
	if !ok {
		t.Fatalf("canceled job has no partial result: %v", view)
	}
	if result["interrupted"] != true {
		t.Errorf("partial result not marked interrupted: %v", result)
	}
	if _, ok := result["explanations"].([]any); !ok {
		t.Errorf("partial result has no explanations field: %v", result)
	}

	// A second DELETE forgets the terminal job.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/jobs/"+accepted.JobID, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("remove = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+accepted.JobID, nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("removed job still resolves: %d", rec.Code)
	}
}

// TestJobTimeout checks the per-search deadline moves an async job to the
// "timeout" status with its best-so-far partial result attached.
func TestJobTimeout(t *testing.T) {
	srv := New(bigTable(t))
	srv.ExplainTimeout = 100 * time.Millisecond
	srv.ProgressInterval = 5 * time.Millisecond
	t.Cleanup(srv.Close)

	rec := postJSON(t, srv, "/jobs", slowExplainBody())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", rec.Code, rec.Body)
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	decodeJSON(t, rec, &accepted)
	view := pollJob(t, srv, accepted.JobID, 30*time.Second, func(v map[string]any) bool {
		return v["status"] == "timeout"
	})
	if result, ok := view["result"].(map[string]any); !ok || result["interrupted"] != true {
		t.Errorf("timeout job result = %v", view["result"])
	}
	if view["error"] == "" {
		t.Error("timeout job carries no error")
	}
}

// TestQueueOverflow checks load shedding: with a budget of 1 and a queue
// depth of 1, a third job is answered 429. The bodies bypass the cache —
// without that, identical submissions coalesce onto job 1 instead of
// queueing (see TestExplainCoalescesConcurrentDuplicates).
func TestQueueOverflow(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.Add("t", bigTable(t), "builtin"); err != nil {
		t.Fatal(err)
	}
	srv := NewCatalog(cat, jobs.New(jobs.Options{Budget: 1, QueueCap: 1}))
	t.Cleanup(srv.Close)

	bypass := func() map[string]any {
		body := slowExplainBody()
		body["cache"] = "bypass"
		return body
	}
	rec := postJSON(t, srv, "/jobs", bypass())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("job 1 = %d (%s)", rec.Code, rec.Body)
	}
	var first struct {
		JobID string `json:"job_id"`
	}
	decodeJSON(t, rec, &first)
	// Wait until it actually occupies the budget so the next submit queues.
	pollJob(t, srv, first.JobID, 30*time.Second, func(v map[string]any) bool {
		return v["status"] == "running"
	})
	if rec = postJSON(t, srv, "/jobs", bypass()); rec.Code != http.StatusAccepted {
		t.Fatalf("job 2 = %d (%s)", rec.Code, rec.Body)
	}
	if rec = postJSON(t, srv, "/jobs", bypass()); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("job 3 = %d, want 429 (%s)", rec.Code, rec.Body)
	}
}

// TestConcurrentExplainsShareBudget runs several synchronous /explain
// requests against a 2-worker global budget and samples the scheduler's
// worker accounting throughout: the sum of granted workers must never
// exceed the budget, yet every request must still succeed — the acceptance
// criterion for the shared scheduler. (Race-detector gated via CI's -race
// run of this package.)
func TestConcurrentExplainsShareBudget(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.Add("sensors", testTable(t), "builtin"); err != nil {
		t.Fatal(err)
	}
	sched := jobs.New(jobs.Options{Budget: 2, QueueCap: 64})
	srv := NewCatalog(cat, sched)
	t.Cleanup(srv.Close)

	// Sample InUse continuously while the requests run.
	var maxInUse atomic.Int64
	stopSampling := make(chan struct{})
	var samplerDone sync.WaitGroup
	samplerDone.Add(1)
	go func() {
		defer samplerDone.Done()
		for {
			select {
			case <-stopSampling:
				return
			default:
				if n := int64(sched.InUse()); n > maxInUse.Load() {
					maxInUse.Store(n)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	const requests = 6
	var wg sync.WaitGroup
	codes := make([]int, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := postJSON(t, srv, "/explain", map[string]any{
				"sql":                "SELECT avg(temp), time FROM sensors GROUP BY time",
				"outliers":           []string{"12PM", "1PM"},
				"all_others_holdout": true,
				"workers":            2, // up to the whole budget (clamped to GOMAXPROCS)
				// Bypass so every request admits its OWN job — coalescing
				// would collapse these identical searches to one and the
				// budget would never be contended.
				"cache": "bypass",
			})
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	close(stopSampling)
	samplerDone.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d = %d", i, code)
		}
	}
	if got := maxInUse.Load(); got > 2 {
		t.Errorf("peak scheduled workers = %d, exceeds global budget 2", got)
	}
	if got := sched.InUse(); got != 0 {
		t.Errorf("InUse after drain = %d", got)
	}
}
