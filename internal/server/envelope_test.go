package server

// The /explain envelope: the exact key set of every response shape the
// server writes, from a cold run to a timed-out job's partial result.

import (
	"encoding/json"
	"net/http"
	"slices"
	"testing"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/catalog"
)

// TestExplainResponseShapes decodes each response shape to a map and pins
// its keys, and the values of the optional ones: "cached" is false on a
// run the cache routes, true on a hit and absent on a bypass or with
// caching disabled; a hit carries no "trace"; "shards" appears only above
// 1, "refreshed_from" only above 0, "interrupt_reason" exactly with
// "interrupted"; "explanations" is always an array.
func TestExplainResponseShapes(t *testing.T) {
	base := []string{"algorithm", "duration_ms", "explanations", "scorer_calls"}
	routed := append([]string{"cache_key", "cached", "trace"}, base...)
	with := func(keys []string, more ...string) []string {
		return append(slices.Clone(keys), more...)
	}
	// explain POSTs body and decodes the 200 answer.
	explain := func(t *testing.T, srv *Server, body any) map[string]any {
		t.Helper()
		rec := postJSON(t, srv, "/explain", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("explain = %d (%s)", rec.Code, rec.Body)
		}
		var out map[string]any
		decodeJSON(t, rec, &out)
		return out
	}
	// jobResult submits body to /jobs and returns the job's result once
	// its status reads status.
	jobResult := func(t *testing.T, srv *Server, body any, status string) map[string]any {
		t.Helper()
		rec := postJSON(t, srv, "/jobs", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit = %d (%s)", rec.Code, rec.Body)
		}
		var accepted struct {
			JobID string `json:"job_id"`
		}
		decodeJSON(t, rec, &accepted)
		view := pollJob(t, srv, accepted.JobID, 30*time.Second, func(v map[string]any) bool {
			return v["status"] == status
		})
		result, ok := view["result"].(map[string]any)
		if !ok {
			t.Fatalf("job %s has no result: %v", status, view)
		}
		return result
	}
	small := func(t *testing.T) *Server {
		srv := New(testTable(t))
		t.Cleanup(srv.Close)
		return srv
	}
	stream := func(t *testing.T) *Server {
		srv := NewCatalog(catalog.New(), nil)
		t.Cleanup(srv.Close)
		if rec := uploadCSV(t, srv, "t", streamCSV(40)); rec.Code != http.StatusCreated {
			t.Fatalf("upload = %d (%s)", rec.Code, rec.Body)
		}
		return srv
	}
	const sum = "SELECT sum(v), g FROM t GROUP BY g"

	cases := []struct {
		name   string
		answer func(t *testing.T) map[string]any
		keys   []string
		cached any // the "cached" value; nil when the key is absent
	}{
		{"cold", func(t *testing.T) map[string]any {
			return explain(t, small(t), obsExplainBody())
		}, routed, false},
		{"sync hit", func(t *testing.T) map[string]any {
			srv := small(t)
			explain(t, srv, obsExplainBody())
			return explain(t, srv, obsExplainBody())
		}, with(base, "cache_key", "cached"), true},
		{"async hit", func(t *testing.T) map[string]any {
			srv := small(t)
			explain(t, srv, obsExplainBody())
			return jobResult(t, srv, obsExplainBody(), "done")
		}, with(base, "cache_key", "cached"), true},
		{"bypass", func(t *testing.T) map[string]any {
			body := obsExplainBody()
			body.Cache = "bypass"
			return explain(t, small(t), body)
		}, with(base, "trace"), nil},
		{"cache disabled", func(t *testing.T) map[string]any {
			srv := small(t)
			srv.ConfigureCache(-1)
			return explain(t, srv, obsExplainBody())
		}, with(base, "trace"), nil},
		{"shards 2", func(t *testing.T) map[string]any {
			body := obsExplainBody()
			body.Shards = 2
			return explain(t, small(t), body)
		}, with(routed, "shards"), false},
		{"dt c change", func(t *testing.T) map[string]any {
			srv := stream(t)
			explain(t, srv, routeBody(sum, "dt", 0.5, nil))
			return explain(t, srv, routeBody(sum, "dt", 0.2, nil))
		}, with(routed, "reused_partition"), false},
		{"warm refresh", func(t *testing.T) map[string]any {
			srv := stream(t)
			explain(t, srv, streamExplainBody())
			if rec := appendCSV(t, srv, "t", streamBatchCSV(12)); rec.Code != http.StatusOK {
				t.Fatalf("append = %d (%s)", rec.Code, rec.Body)
			}
			return explain(t, srv, streamExplainBody())
		}, with(routed, "refreshed", "refreshed_from"), false},
		{"timeout", func(t *testing.T) map[string]any {
			srv := New(bigTable(t))
			t.Cleanup(srv.Close)
			srv.ExplainTimeout = 100 * time.Millisecond
			return jobResult(t, srv, slowExplainBody(), "timeout")
		}, with(routed, "interrupted", "interrupt_reason"), false},
		{"no explanations", func(t *testing.T) map[string]any {
			data, err := json.Marshal(newExplainResponse(&scorpion.Result{}))
			if err != nil {
				t.Fatal(err)
			}
			var out map[string]any
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatal(err)
			}
			return out
		}, base, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.answer(t)
			keys := make([]string, 0, len(got))
			for k := range got {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			want := slices.Sorted(slices.Values(tc.keys))
			if !slices.Equal(keys, want) {
				t.Fatalf("keys %v, want %v (body %v)", keys, want, got)
			}
			if got["cached"] != tc.cached {
				t.Errorf("cached = %v, want %v", got["cached"], tc.cached)
			}
			if _, ok := got["explanations"].([]any); !ok {
				t.Errorf("explanations = %#v, want an array", got["explanations"])
			}
			for key, ok := range map[string]bool{
				"shards":           got["shards"] == float64(2),
				"reused_partition": got["reused_partition"] == true,
				"refreshed":        got["refreshed"] == true,
				"interrupted":      got["interrupted"] == true,
			} {
				if _, present := got[key]; present && !ok {
					t.Errorf("%s = %v", key, got[key])
				}
			}
			if from, present := got["refreshed_from"]; present && from.(float64) <= 0 {
				t.Errorf("refreshed_from = %v, want above 0", from)
			}
			if reason, present := got["interrupt_reason"]; present && reason == "" {
				t.Error("interrupt_reason is empty")
			}
		})
	}
}
