package server

// BenchmarkExplainCached measures what the result cache buys on repeated
// identical traffic — the paper's interactive workload (§8.3.3) served
// over HTTP. Three modes on the same request:
//
//   - cold:   every request bypasses the cache (full search each time)
//   - warm:   every request after the first is a cache hit
//   - csweep: each request alternates c, so the result cache misses but
//     the session reuses the DT partitioning
//
// The recorded baseline lives in BENCH_cache.json; re-record with
//
//	go test -run '^$' -bench BenchmarkExplainCached -benchtime 50x ./internal/server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/scorpiondb/scorpion/internal/catalog"
)

func benchPost(b *testing.B, srv *Server, body map[string]any) *explainResult {
	b.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest("POST", "/explain", bytes.NewReader(data))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("explain = %d (%s)", rec.Code, rec.Body)
	}
	var out explainResult
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		b.Fatal(err)
	}
	return &out
}

func BenchmarkExplainCached(b *testing.B) {
	base := func() map[string]any {
		return map[string]any{
			"sql":                "SELECT avg(v), grp FROM t GROUP BY grp",
			"outliers":           []string{"g2", "g3"},
			"all_others_holdout": true,
			"algorithm":          "dt",
		}
	}

	b.Run("cold", func(b *testing.B) {
		srv := New(bigTable(b))
		defer srv.Close()
		body := base()
		body["cache"] = "bypass"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, srv, body)
		}
	})

	b.Run("warm", func(b *testing.B) {
		srv := New(bigTable(b))
		defer srv.Close()
		body := base()
		benchPost(b, srv, body) // populate
		b.ResetTimer()
		hits := 0
		for i := 0; i < b.N; i++ {
			if res := benchPost(b, srv, body); res.Cached != nil && *res.Cached {
				hits++
			}
		}
		b.ReportMetric(float64(hits)/float64(b.N), "hit-ratio")
	})

	b.Run("csweep", func(b *testing.B) {
		srv := New(bigTable(b))
		defer srv.Close()
		body := base()
		body["c"] = 1.0
		benchPost(b, srv, body) // build the session's partitioning
		b.ResetTimer()
		reused := 0
		for i := 0; i < b.N; i++ {
			// A distinct c each iteration: the result cache misses, so every
			// request exercises the session's partition reuse.
			body["c"] = float64(i%997) / 1000.0
			if res := benchPost(b, srv, body); res.ReusedPartition {
				reused++
			}
		}
		b.ReportMetric(float64(reused)/float64(b.N), "partition-reuse-ratio")
	})
}

// --- streaming bench ----------------------------------------------------

// streamBenchCSV renders the streaming bench fixture: group-contiguous
// rows, `groups` GROUP BY keys of `rowsPerGroup` rows each, the last two
// groups outliers whose a1 ∈ [50, 80] region carries inflated values.
func streamBenchCSV(groups, rowsPerGroup int) string {
	var sb strings.Builder
	sb.WriteString("grp,a1,a2,v\n")
	for g := 0; g < groups; g++ {
		for i := 0; i < rowsPerGroup; i++ {
			a1 := (i * 7) % 100
			a2 := (i * 13) % 100
			v := 10
			if g >= groups-2 && a1 >= 50 && a1 <= 80 {
				v = 95
			}
			fmt.Fprintf(&sb, "g%02d,%d,%d,%d\n", g, a1, a2, v)
		}
	}
	return sb.String()
}

// streamBenchBatch renders one append batch (rows only, no header) spread
// across every group, preserving the fixture's outlier pattern.
func streamBenchBatch(groups, n, seed int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		g := (seed*31 + i) % groups
		a1 := (seed*17 + i*7) % 100
		a2 := (seed*5 + i*13) % 100
		v := 10
		if g >= groups-2 && a1 >= 50 && a1 <= 80 {
			v = 95
		}
		fmt.Fprintf(&sb, "g%02d,%d,%d,%d\n", g, a1, a2, v)
	}
	return sb.String()
}

// streamBenchResult decodes the streaming fields the bench asserts on.
type streamBenchResult struct {
	Explanations  []ExplanationJSON `json:"explanations"`
	Cached        bool              `json:"cached"`
	Refreshed     bool              `json:"refreshed"`
	RefreshedFrom int64             `json:"refreshed_from"`
}

func streamBenchPost(b *testing.B, srv *Server, path, contentType, body string, wantCode int) []byte {
	b.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantCode {
		b.Fatalf("POST %s = %d (%s)", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// BenchmarkExplainStreaming measures what the append path buys a live
// table: each iteration ingests one batch of rows and re-explains.
//
//   - refresh: POST /tables/{t}/rows + /explain — the server warm-starts
//     from its session, re-scoring the previous run's candidates
//     against incrementally advanced group states ("refreshed_from").
//   - reload: DELETE /tables/{t} + re-upload the WHOLE grown CSV + a cold
//     /explain — the only way to track growing data when tables are
//     immutable and appends invalidate rather than warm-start.
//
// Both sides process identical batches onto identical bases; the recorded
// baseline lives in BENCH_stream.json (acceptance: refresh ≥ 2× faster).
// Re-record with
//
//	go test -run '^$' -bench BenchmarkExplainStreaming -benchtime 20x ./internal/server
func BenchmarkExplainStreaming(b *testing.B) {
	const groups, rowsPerGroup, batchRows = 30, 300, 120
	baseCSV := streamBenchCSV(groups, rowsPerGroup)
	explainBody := func() string {
		return `{"table":"t","sql":"SELECT sum(v), grp FROM t GROUP BY grp",` +
			`"outliers":["g` + fmt.Sprint(groups-2) + `","g` + fmt.Sprint(groups-1) + `"],` +
			`"all_others_holdout":true,"algorithm":"naive"}`
	}

	b.Run("refresh", func(b *testing.B) {
		srv := NewCatalog(catalog.New(), nil)
		defer srv.Close()
		streamBenchPost(b, srv, "/tables?name=t", "text/csv", baseCSV, http.StatusCreated)
		streamBenchPost(b, srv, "/explain", "application/json", explainBody(), http.StatusOK) // prime cold
		refreshed := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			streamBenchPost(b, srv, "/tables/t/rows", "text/csv",
				"grp,a1,a2,v\n"+streamBenchBatch(groups, batchRows, i), http.StatusOK)
			var out streamBenchResult
			if err := json.Unmarshal(streamBenchPost(b, srv, "/explain", "application/json",
				explainBody(), http.StatusOK), &out); err != nil {
				b.Fatal(err)
			}
			if out.Cached {
				b.Fatal("successor generation served from cache")
			}
			if out.Refreshed {
				refreshed++
			}
			if len(out.Explanations) == 0 {
				b.Fatal("no explanations")
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(refreshed)/float64(b.N), "refresh-ratio")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	})

	b.Run("reload", func(b *testing.B) {
		srv := NewCatalog(catalog.New(), nil)
		defer srv.Close()
		streamBenchPost(b, srv, "/tables?name=t", "text/csv", baseCSV, http.StatusCreated)
		streamBenchPost(b, srv, "/explain", "application/json", explainBody(), http.StatusOK)
		grown := baseCSV
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			grown += streamBenchBatch(groups, batchRows, i)
			// Unload, re-upload the whole grown table, explain cold (the
			// re-upload starts a new lineage and generation, so nothing is
			// served warm or cached).
			req := httptest.NewRequest("DELETE", "/tables/t", nil)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("unload = %d", rec.Code)
			}
			streamBenchPost(b, srv, "/tables?name=t", "text/csv", grown, http.StatusCreated)
			var out streamBenchResult
			if err := json.Unmarshal(streamBenchPost(b, srv, "/explain", "application/json",
				explainBody(), http.StatusOK), &out); err != nil {
				b.Fatal(err)
			}
			if out.Cached || out.Refreshed {
				b.Fatalf("reload side served warm: %+v", out)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	})
}
