package server

// Tests for the streaming append path: POST /tables/{name}/rows, successor
// generations warm-starting repeated explanations (refreshed_from), the
// 4xx failure surface, and append racing DELETE (race-gated via CI's -race
// run of this package).

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scorpiondb/scorpion/internal/catalog"
)

// streamCSV renders the streaming fixture: group-contiguous rows where the
// "out" group's a ∈ [5, 8] region carries v=100 against a background of 10.
func streamCSV(rowsPerGroup int) string {
	var b strings.Builder
	b.WriteString("g,a,v\n")
	for _, g := range []string{"hold1", "hold2", "out"} {
		for i := 0; i < rowsPerGroup; i++ {
			a := i % 10
			v := 10
			if g == "out" && a >= 5 && a <= 8 {
				v = 100
			}
			fmt.Fprintf(&b, "%s,%d,%d\n", g, a, v)
		}
	}
	return b.String()
}

// streamBatchCSV renders an append batch following the fixture's pattern.
func streamBatchCSV(n int) string {
	var b strings.Builder
	b.WriteString("g,a,v\n")
	for i := 0; i < n; i++ {
		g := []string{"hold1", "hold2", "out"}[i%3]
		a := (i * 3) % 10
		v := 10
		if g == "out" && a >= 5 && a <= 8 {
			v = 100
		}
		fmt.Fprintf(&b, "%s,%d,%d\n", g, a, v)
	}
	return b.String()
}

// streamExplainBody is the request the streaming tests repeat: forced
// NAIVE, so its session refreshes warm after an append rather than taking
// the DT path.
func streamExplainBody() map[string]any {
	return map[string]any{
		"table":              "t",
		"sql":                "SELECT sum(v), g FROM t GROUP BY g",
		"outliers":           []string{"out"},
		"all_others_holdout": true,
		"algorithm":          "naive",
	}
}

// uploadCSV POSTs a CSV body as table name.
func uploadCSV(t *testing.T, srv *Server, name, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/tables?name="+name, strings.NewReader(body)))
	return rec
}

// appendCSV POSTs a CSV batch to /tables/{name}/rows.
func appendCSV(t *testing.T, srv *Server, name, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/tables/"+name+"/rows", strings.NewReader(body)))
	return rec
}

// streamResult decodes the fields the streaming tests assert on.
type streamResult struct {
	Algorithm     string            `json:"algorithm"`
	Explanations  []ExplanationJSON `json:"explanations"`
	Cached        bool              `json:"cached"`
	Refreshed     bool              `json:"refreshed"`
	RefreshedFrom int64             `json:"refreshed_from"`
}

func postStreamExplain(t *testing.T, srv *Server, body map[string]any) streamResult {
	t.Helper()
	rec := postJSON(t, srv, "/explain", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("explain = %d (%s)", rec.Code, rec.Body)
	}
	var out streamResult
	decodeJSON(t, rec, &out)
	return out
}

func TestAppendEndpointWarmRefresh(t *testing.T) {
	srv := NewCatalog(catalog.New(), nil)
	defer srv.Close()
	if rec := uploadCSV(t, srv, "t", streamCSV(40)); rec.Code != http.StatusCreated {
		t.Fatalf("upload = %d (%s)", rec.Code, rec.Body)
	}
	// Cold first run.
	first := postStreamExplain(t, srv, streamExplainBody())
	if first.Refreshed || first.RefreshedFrom != 0 {
		t.Fatalf("first run refreshed: %+v", first)
	}
	if len(first.Explanations) == 0 {
		t.Fatal("first run found nothing")
	}

	// Append a batch: 200, successor generation, same lineage.
	rec := appendCSV(t, srv, "t", streamBatchCSV(12))
	if rec.Code != http.StatusOK {
		t.Fatalf("append = %d (%s)", rec.Code, rec.Body)
	}
	var ap struct {
		Table    tableJSON `json:"table"`
		Appended int       `json:"appended"`
	}
	decodeJSON(t, rec, &ap)
	if ap.Appended != 12 || ap.Table.Rows != 132 {
		t.Fatalf("append response = %+v", ap)
	}
	if ap.Table.AppendedRows != 12 {
		t.Fatalf("appended_rows = %d", ap.Table.AppendedRows)
	}

	// The repeated explanation warm-starts from the predecessor state.
	warm := postStreamExplain(t, srv, streamExplainBody())
	if warm.Cached {
		t.Fatal("successor generation served a stale cache hit")
	}
	if !warm.Refreshed || warm.RefreshedFrom == 0 {
		t.Fatalf("expected warm refresh, got %+v", warm)
	}

	// The warm answer must match a forced-cold run on the same data.
	bypass := streamExplainBody()
	bypass["cache"] = "bypass"
	cold := postStreamExplain(t, srv, bypass)
	if cold.Refreshed {
		t.Fatal("bypass run served warm")
	}
	if len(warm.Explanations) == 0 || len(cold.Explanations) == 0 {
		t.Fatal("empty explanations")
	}
	if warm.Explanations[0].Where != cold.Explanations[0].Where {
		t.Fatalf("warm top %q != cold top %q", warm.Explanations[0].Where, cold.Explanations[0].Where)
	}
	if d := math.Abs(warm.Explanations[0].Influence - cold.Explanations[0].Influence); d > 1e-9 {
		t.Fatalf("warm influence %v != cold %v", warm.Explanations[0].Influence, cold.Explanations[0].Influence)
	}

	// An exact repeat of the warm request is now a plain cache hit.
	repeat := postStreamExplain(t, srv, streamExplainBody())
	if !repeat.Cached {
		t.Fatalf("repeat not served from cache: %+v", repeat)
	}

	// Async jobs report refreshed_from too.
	if rec := appendCSV(t, srv, "t", streamBatchCSV(6)); rec.Code != http.StatusOK {
		t.Fatalf("append 2 = %d", rec.Code)
	}
	rec = postJSON(t, srv, "/jobs", streamExplainBody())
	if rec.Code != http.StatusAccepted {
		t.Fatalf("job submit = %d (%s)", rec.Code, rec.Body)
	}
	var accepted struct {
		JobID string `json:"job_id"`
	}
	decodeJSON(t, rec, &accepted)
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+accepted.JobID, nil))
		var view struct {
			Status string        `json:"status"`
			Result *streamResult `json:"result"`
		}
		decodeJSON(t, rec, &view)
		if view.Status == "done" {
			if view.Result == nil || !view.Result.Refreshed || view.Result.RefreshedFrom == 0 {
				t.Fatalf("job result missing refreshed_from: %+v", view.Result)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", view.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReplaceStartsColdLineage(t *testing.T) {
	srv := NewCatalog(catalog.New(), nil)
	defer srv.Close()
	if rec := uploadCSV(t, srv, "t", streamCSV(40)); rec.Code != http.StatusCreated {
		t.Fatal("upload failed")
	}
	postStreamExplain(t, srv, streamExplainBody())
	if rec := appendCSV(t, srv, "t", streamBatchCSV(6)); rec.Code != http.StatusOK {
		t.Fatal("append failed")
	}
	warm := postStreamExplain(t, srv, streamExplainBody())
	if !warm.Refreshed {
		t.Fatalf("expected warm refresh before replace, got %+v", warm)
	}
	// Replacing the table ends the lineage: the next run must be cold.
	if rec := uploadCSV(t, srv, "t", streamCSV(40)); rec.Code != http.StatusCreated {
		t.Fatal("replace failed")
	}
	res := postStreamExplain(t, srv, streamExplainBody())
	if res.Cached || res.Refreshed || res.RefreshedFrom != 0 {
		t.Fatalf("replaced table served warm/stale: %+v", res)
	}
}

func TestAppendEndpointFailures(t *testing.T) {
	srv := NewCatalog(catalog.New(), nil)
	defer srv.Close()
	if rec := uploadCSV(t, srv, "t", streamCSV(10)); rec.Code != http.StatusCreated {
		t.Fatal("upload failed")
	}
	cases := []struct {
		name string
		tab  string
		body string
		want int
	}{
		{"unknown table", "ghost", "g,a,v\nx,1,2\n", http.StatusNotFound},
		{"schema mismatch", "t", "g,a,extra\nx,1,2\n", http.StatusBadRequest},
		{"bad kind", "t", "g,a,v\nx,notanumber,2\n", http.StatusBadRequest},
		{"ragged row", "t", "g,a,v\nx,1\n", http.StatusBadRequest},
		{"empty body", "t", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		if rec := appendCSV(t, srv, tc.tab, tc.body); rec.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
	// NaN/Inf VALUES are legal float input: the append lands and a
	// subsequent explanation stays finite, never panics.
	if rec := appendCSV(t, srv, "t", "g,a,v\nout,6,NaN\nout,7,+Inf\n"); rec.Code != http.StatusOK {
		t.Fatalf("NaN/Inf append = %d (%s)", rec.Code, rec.Body)
	}
	res := postStreamExplain(t, srv, streamExplainBody())
	for _, e := range res.Explanations {
		if math.IsNaN(e.Influence) || math.IsInf(e.Influence, 0) {
			t.Fatalf("explanation %q has non-finite influence %v", e.Where, e.Influence)
		}
	}
	// Upload size cap applies to appends too.
	srv.MaxUploadBytes = 64
	if rec := appendCSV(t, srv, "t", streamBatchCSV(1000)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized append = %d, want 413", rec.Code)
	}
	srv.MaxUploadBytes = 0
	// Appending to a deleted table 404s.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/tables/t", nil))
	if rec.Code != http.StatusOK {
		t.Fatal("delete failed")
	}
	if rec := appendCSV(t, srv, "t", streamBatchCSV(3)); rec.Code != http.StatusNotFound {
		t.Errorf("append after delete = %d, want 404", rec.Code)
	}
}

func TestAppendRacingTableDelete(t *testing.T) {
	// Appends racing DELETE /tables/{name} and re-uploads must produce
	// clean statuses (200 landed, 404 lost the race, 409-free) and never
	// panic; the race detector gates the shared catalog/appender state.
	srv := NewCatalog(catalog.New(), nil)
	defer srv.Close()
	if rec := uploadCSV(t, srv, "t", streamCSV(10)); rec.Code != http.StatusCreated {
		t.Fatal("upload failed")
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/tables/t/rows",
					strings.NewReader("g,a,v\nout,1,5\n")))
				switch rec.Code {
				case http.StatusOK, http.StatusNotFound:
				default:
					t.Errorf("append status %d (%s)", rec.Code, rec.Body)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 25; j++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/tables/t", nil))
			if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
				t.Errorf("delete status %d", rec.Code)
				return
			}
			if rec := uploadCSV(t, srv, "t", streamCSV(10)); rec.Code != http.StatusCreated {
				t.Errorf("re-upload status %d", rec.Code)
				return
			}
		}
	}()
	wg.Wait()
}
