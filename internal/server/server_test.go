package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
)

// testTable builds the running-example sensors table.
func testTable(t testing.TB) *scorpion.Table {
	t.Helper()
	schema, err := scorpion.NewSchema(
		scorpion.Column{Name: "time", Kind: scorpion.Discrete},
		scorpion.Column{Name: "sensorid", Kind: scorpion.Discrete},
		scorpion.Column{Name: "voltage", Kind: scorpion.Continuous},
		scorpion.Column{Name: "temp", Kind: scorpion.Continuous},
	)
	if err != nil {
		t.Fatal(err)
	}
	b := scorpion.NewBuilder(schema)
	for _, r := range []scorpion.Row{
		{scorpion.S("11AM"), scorpion.S("1"), scorpion.F(2.64), scorpion.F(34)},
		{scorpion.S("11AM"), scorpion.S("2"), scorpion.F(2.65), scorpion.F(35)},
		{scorpion.S("11AM"), scorpion.S("3"), scorpion.F(2.63), scorpion.F(35)},
		{scorpion.S("12PM"), scorpion.S("1"), scorpion.F(2.7), scorpion.F(35)},
		{scorpion.S("12PM"), scorpion.S("2"), scorpion.F(2.7), scorpion.F(35)},
		{scorpion.S("12PM"), scorpion.S("3"), scorpion.F(2.3), scorpion.F(100)},
		{scorpion.S("1PM"), scorpion.S("1"), scorpion.F(2.7), scorpion.F(35)},
		{scorpion.S("1PM"), scorpion.S("2"), scorpion.F(2.7), scorpion.F(35)},
		{scorpion.S("1PM"), scorpion.S("3"), scorpion.F(2.3), scorpion.F(80)},
	} {
		b.MustAppend(r)
	}
	return b.Build()
}

func postJSON(t *testing.T, srv http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func TestSchemaEndpoint(t *testing.T) {
	srv := New(testTable(t))
	req := httptest.NewRequest("GET", "/schema", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var out struct {
		Columns []columnJSON `json:"columns"`
		Rows    int          `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Columns) != 4 || out.Rows != 9 {
		t.Errorf("schema = %+v", out)
	}
	if out.Columns[0].Name != "time" || out.Columns[0].Kind != "discrete" {
		t.Errorf("column 0 = %+v", out.Columns[0])
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := New(testTable(t))
	rec := postJSON(t, srv, "/query", QueryRequest{
		SQL: "SELECT avg(temp), time FROM sensors GROUP BY time",
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var out struct {
		Rows []QueryRow `json:"rows"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("rows = %+v", out.Rows)
	}
	for _, row := range out.Rows {
		if row.GroupSize != 3 {
			t.Errorf("group size = %d", row.GroupSize)
		}
	}
}

func TestQueryEndpointBadSQL(t *testing.T) {
	srv := New(testTable(t))
	rec := postJSON(t, srv, "/query", QueryRequest{SQL: "not sql"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Errorf("body = %s", rec.Body)
	}
}

func TestExplainEndpoint(t *testing.T) {
	srv := New(testTable(t))
	c := 1.0
	rec := postJSON(t, srv, "/explain", ExplainRequest{
		SQL:              "SELECT avg(temp), time FROM sensors GROUP BY time",
		Outliers:         []string{"12PM", "1PM"},
		AllOthersHoldOut: true,
		Direction:        "high",
		C:                &c,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var out struct {
		Algorithm    string            `json:"algorithm"`
		Explanations []ExplanationJSON `json:"explanations"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Algorithm != "dt" {
		t.Errorf("algorithm = %s", out.Algorithm)
	}
	if len(out.Explanations) == 0 {
		t.Fatal("no explanations")
	}
	top := out.Explanations[0]
	if !strings.Contains(top.Where, "sensorid in ('3')") &&
		!strings.Contains(top.Where, "voltage") {
		t.Errorf("top explanation = %q", top.Where)
	}
}

func TestExplainEndpointValidation(t *testing.T) {
	srv := New(testTable(t))
	t.Cleanup(srv.Close)
	knob := func(v float64) *float64 { return &v }
	const sql = "SELECT avg(temp), time FROM sensors GROUP BY time"
	cases := []struct {
		req  ExplainRequest
		want string // substring the error must name; "" = any
	}{
		{ExplainRequest{}, "SQL"},
		{ExplainRequest{SQL: sql}, "outlier"},
		{ExplainRequest{SQL: sql, Outliers: []string{"12PM"}, Direction: "sideways"}, "direction"},
		{ExplainRequest{SQL: sql, Outliers: []string{"12PM"}, Algorithm: "quantum"}, "algorithm"},
		// λ and c are validated by the Plan before admission, like shards:
		// no job is minted for them.
		{ExplainRequest{SQL: sql, Outliers: []string{"12PM"}, Lambda: knob(2)}, "lambda"},
		{ExplainRequest{SQL: sql, Outliers: []string{"12PM"}, Lambda: knob(-0.5)}, "lambda"},
		{ExplainRequest{SQL: sql, Outliers: []string{"12PM"}, C: knob(-1)}, "c -1"},
		// A repeated label would weigh its group twice.
		{ExplainRequest{SQL: sql, Outliers: []string{"12PM", "1PM", "12PM"}}, `outlier \"12PM\" listed twice`},
		{ExplainRequest{SQL: sql, Outliers: []string{"12PM"}, HoldOuts: []string{"11AM", "11AM"}}, `hold-out \"11AM\" listed twice`},
	}
	for _, route := range []string{"/explain", "/jobs"} {
		for i, tc := range cases {
			rec := postJSON(t, srv, route, tc.req)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s case %d: status = %d (%s)", route, i, rec.Code, rec.Body)
			} else if !strings.Contains(rec.Body.String(), tc.want) {
				t.Errorf("%s case %d: error %s does not name %q", route, i, rec.Body, tc.want)
			}
		}
	}
	if n := startedJobs(t, srv); n != 0 {
		t.Errorf("%d jobs started for rejected requests, want 0", n)
	}
	if jobs := srv.Scheduler().Jobs(); len(jobs) != 0 {
		t.Errorf("rejected requests minted %d jobs", len(jobs))
	}
	// Malformed JSON bodies.
	req := httptest.NewRequest("POST", "/explain", strings.NewReader("{"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d", rec.Code)
	}
}

func TestMethodRouting(t *testing.T) {
	srv := New(testTable(t))
	req := httptest.NewRequest("GET", "/explain", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /explain status = %d", rec.Code)
	}
}

// bigTable builds a synthetic dataset large enough that a NAIVE search over
// several continuous attributes takes far longer than the test timeout.
func bigTable(t testing.TB) *scorpion.Table {
	t.Helper()
	schema, err := scorpion.NewSchema(
		scorpion.Column{Name: "grp", Kind: scorpion.Discrete},
		scorpion.Column{Name: "a1", Kind: scorpion.Continuous},
		scorpion.Column{Name: "a2", Kind: scorpion.Continuous},
		scorpion.Column{Name: "a3", Kind: scorpion.Continuous},
		scorpion.Column{Name: "v", Kind: scorpion.Continuous},
	)
	if err != nil {
		t.Fatal(err)
	}
	b := scorpion.NewBuilder(schema)
	for g := 0; g < 4; g++ {
		key := []string{"g0", "g1", "g2", "g3"}[g]
		for i := 0; i < 800; i++ {
			v := 10.0
			if g >= 2 && i%7 == 0 {
				v = 90
			}
			b.MustAppend(scorpion.Row{
				scorpion.S(key),
				scorpion.F(float64(i % 100)),
				scorpion.F(float64((i * 13) % 100)),
				scorpion.F(float64((i * 29) % 100)),
				scorpion.F(v),
			})
		}
	}
	return b.Build()
}

// TestExplainTimeoutInterruptsSearch proves ExplainTimeout now cancels a
// running NAIVE search through the context path: a tiny timeout against a
// large table returns a 504 JSON error promptly instead of hanging until
// the search finishes.
func TestExplainTimeoutInterruptsSearch(t *testing.T) {
	srv := New(bigTable(t))
	srv.ExplainTimeout = 50 * time.Millisecond

	start := time.Now()
	rec := postJSON(t, srv, "/explain", map[string]any{
		"sql":                "SELECT avg(v), grp FROM t GROUP BY grp",
		"outliers":           []string{"g2", "g3"},
		"all_others_holdout": true,
		"algorithm":          "naive",
	})
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want %d (body %s)", rec.Code, http.StatusGatewayTimeout, rec.Body.String())
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("non-JSON error body: %v", err)
	}
	if body["error"] == "" {
		t.Fatal("timeout response carries no error field")
	}
	// The old goroutine+channel timeout also returned 504 quickly, but the
	// search kept running; with the context path the handler returns only
	// after the search actually stopped. Either way the response must not
	// wait for the full exhaustive search (which takes minutes).
	if elapsed > 10*time.Second {
		t.Fatalf("timeout took %s, want prompt interruption", elapsed)
	}
}

// TestExplainWorkersField checks the per-request workers knob is accepted
// and produces the same explanations as a serial request.
func TestExplainWorkersField(t *testing.T) {
	srv := New(testTable(t))
	req := map[string]any{
		"sql":                "SELECT avg(temp), time FROM readings GROUP BY time",
		"outliers":           []string{"12PM", "1PM"},
		"all_others_holdout": true,
	}
	serial := postJSON(t, srv, "/explain", req)
	req["workers"] = 8
	parallel := postJSON(t, srv, "/explain", req)
	if serial.Code != http.StatusOK || parallel.Code != http.StatusOK {
		t.Fatalf("status serial=%d parallel=%d", serial.Code, parallel.Code)
	}
	var a, b struct {
		Explanations []ExplanationJSON `json:"explanations"`
	}
	if err := json.Unmarshal(serial.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(parallel.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if len(a.Explanations) == 0 {
		t.Fatal("no explanations")
	}
	if !reflect.DeepEqual(a.Explanations, b.Explanations) {
		t.Fatalf("parallel explanations differ:\nserial   %+v\nparallel %+v", a.Explanations, b.Explanations)
	}
}

// TestExplainClientDisconnect checks a cancelled request context stops the
// search without writing a response.
func TestExplainClientDisconnect(t *testing.T) {
	srv := New(bigTable(t))
	data, err := json.Marshal(map[string]any{
		"sql":                "SELECT avg(v), grp FROM t GROUP BY grp",
		"outliers":           []string{"g2", "g3"},
		"all_others_holdout": true,
		"algorithm":          "naive",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/explain", bytes.NewReader(data)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.ServeHTTP(rec, req)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after client disconnect")
	}
}

// oversizedBody posts a well-formed JSON request padded past
// maxRequestBytes and wants 413 with a JSON error body — and the same
// request unpadded accepted, so the refusal is about size alone.
func oversizedBody(t *testing.T, path string, body map[string]any) {
	t.Helper()
	srv := New(testTable(t))
	t.Cleanup(srv.Close)
	if rec := postJSON(t, srv, path, body); rec.Code >= 400 {
		t.Fatalf("%s with a small body = %d (%s)", path, rec.Code, rec.Body)
	}
	body["padding"] = strings.Repeat("x", maxRequestBytes)
	rec := postJSON(t, srv, path, body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%s with an oversized body = %d, want 413 (%.80s)", path, rec.Code, rec.Body)
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || !strings.Contains(out["error"], "limit") {
		t.Errorf("%s 413 body = %q (decode error %v), want a JSON error naming the limit", path, rec.Body, err)
	}
}

func smallExplainBody() map[string]any {
	return map[string]any{
		"sql":                "SELECT avg(temp), time FROM sensors GROUP BY time",
		"outliers":           []string{"12PM", "1PM"},
		"all_others_holdout": true,
	}
}

func TestExplainOversizedBody(t *testing.T) { oversizedBody(t, "/explain", smallExplainBody()) }

func TestJobsOversizedBody(t *testing.T) { oversizedBody(t, "/jobs", smallExplainBody()) }

func TestQueryOversizedBody(t *testing.T) {
	oversizedBody(t, "/query", map[string]any{"sql": "SELECT avg(temp), time FROM sensors GROUP BY time"})
}
