package server

// Tests for the one session store: which reuse each request sequence gets
// (partition reuse, warm refresh, or a cold run and its counter reason),
// and that the session fallbacks leave no goroutine behind.

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/scorpiondb/scorpion/internal/catalog"
)

// coldReasons lists every scorpion_stream_cold_total reason label.
var coldReasons = []string{
	"cold_start", "table_shrunk", "schema_changed", "growth_cap", "advance_failed",
	"new_group", "group_missing", "states_unavailable", "seed_failed",
	"busy", "stale_generation", "init_failed", "unknown",
}

// streamCounters reads the warm counter and every cold reason for table t.
func streamCounters(srv *Server) (warm float64, cold map[string]float64) {
	cold = make(map[string]float64)
	for _, r := range coldReasons {
		cold[r] = srv.reg.Counter("scorpion_stream_cold_total", "table", "t", "reason", r).Value()
	}
	return srv.reg.Counter("scorpion_stream_warm_total", "table", "t").Value(), cold
}

// routed is what a routing step asserts on.
type routed struct {
	ReusedPartition bool  `json:"reused_partition"`
	Refreshed       bool  `json:"refreshed"`
	RefreshedFrom   int64 `json:"refreshed_from"`
	Cached          bool  `json:"cached"`
}

// routeStep is one request of a routing sequence. appendRows > 0 appends
// that many rows first. fromStep names the earlier step whose generation
// the answer must be refreshed from (-1: not refreshed); cold names the
// cold-counter reason the request must add ("" adds none).
type routeStep struct {
	appendRows int
	body       map[string]any
	reused     bool
	fromStep   int
	cold       string
}

func routeBody(sql, algo string, c float64, extra map[string]any) map[string]any {
	body := map[string]any{
		"table":              "t",
		"sql":                sql,
		"outliers":           []string{"out"},
		"all_others_holdout": true,
		"c":                  c,
	}
	if algo != "" {
		body["algorithm"] = algo
	}
	for k, v := range extra {
		body[k] = v
	}
	return body
}

// TestSessionRouting drives HTTP request sequences and pins, per request,
// which reuse the one session store gives it.
func TestSessionRouting(t *testing.T) {
	const sum = "SELECT sum(v), g FROM t GROUP BY g" // auto resolves MC
	const avg = "SELECT avg(v), g FROM t GROUP BY g" // auto resolves DT
	step := func(rows int, body map[string]any, reused bool, from int, cold string) routeStep {
		return routeStep{appendRows: rows, body: body, reused: reused, fromStep: from, cold: cold}
	}
	cases := []struct {
		name  string
		steps []routeStep
	}{
		{"dt c-sweep", []routeStep{
			step(0, routeBody(sum, "dt", 0.5, nil), false, -1, ""),
			step(0, routeBody(sum, "dt", 0.2, nil), true, -1, ""),
			step(0, routeBody(sum, "dt", 0.1, nil), true, -1, ""),
		}},
		{"dt after append", []routeStep{
			step(0, routeBody(sum, "dt", 0.2, nil), false, -1, ""),
			step(12, routeBody(sum, "dt", 0.2, nil), false, -1, ""),
			step(0, routeBody(sum, "dt", 0.1, nil), true, -1, ""),
		}},
		{"mc and naive after append", []routeStep{
			step(0, routeBody(sum, "mc", 0.3, nil), false, -1, "cold_start"),
			step(0, routeBody(sum, "naive", 0.3, nil), false, -1, "cold_start"),
			step(12, routeBody(sum, "mc", 0.3, nil), false, 0, ""),
			step(0, routeBody(sum, "naive", 0.3, nil), false, 1, ""),
		}},
		{"mc alternating c", []routeStep{
			step(0, routeBody(sum, "mc", 0.4, nil), false, -1, "cold_start"),
			step(0, routeBody(sum, "mc", 0.6, nil), false, -1, "cold_start"),
			step(12, routeBody(sum, "mc", 0.4, nil), false, 0, ""),
			step(12, routeBody(sum, "mc", 0.6, nil), false, 1, ""),
			step(0, routeBody(sum, "mc", 0.4, nil), false, 2, ""),
		}},
		{"shards 2", []routeStep{
			step(0, routeBody(sum, "dt", 0.3, map[string]any{"shards": 2}), false, -1, "cold_start"),
			step(12, routeBody(sum, "dt", 0.3, map[string]any{"shards": 2}), false, 0, ""),
		}},
		{"cache bypass", []routeStep{
			step(0, routeBody(sum, "mc", 0.3, nil), false, -1, "cold_start"),
			step(12, routeBody(sum, "mc", 0.3, map[string]any{"cache": "bypass"}), false, -1, ""),
			step(0, routeBody(sum, "mc", 0.3, nil), false, 0, ""),
		}},
		{"auto resolves dt", []routeStep{
			step(0, routeBody(avg, "", 0.5, nil), false, -1, ""),
			step(0, routeBody(avg, "", 0.2, nil), true, -1, ""),
			step(12, routeBody(avg, "", 0.2, nil), false, -1, ""),
		}},
		// The one routing change: auto routes on the algorithm it resolves
		// to, so an auto request that resolves to MC refreshes like mc.
		{"auto resolves mc", []routeStep{
			step(0, routeBody(sum, "", 0.3, nil), false, -1, "cold_start"),
			step(12, routeBody(sum, "", 0.3, nil), false, 0, ""),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewCatalog(catalog.New(), nil)
			defer srv.Close()
			if rec := uploadCSV(t, srv, "t", streamCSV(40)); rec.Code != http.StatusCreated {
				t.Fatalf("upload = %d (%s)", rec.Code, rec.Body)
			}
			gens := make([]int64, len(tc.steps))
			for i, st := range tc.steps {
				if st.appendRows > 0 {
					if rec := appendCSV(t, srv, "t", streamBatchCSV(st.appendRows)); rec.Code != http.StatusOK {
						t.Fatalf("step %d: append = %d (%s)", i, rec.Code, rec.Body)
					}
				}
				entry, err := srv.Catalog().Resolve("t")
				if err != nil {
					t.Fatal(err)
				}
				gens[i] = entry.Gen
				warm0, cold0 := streamCounters(srv)
				rec := postJSON(t, srv, "/explain", st.body)
				if rec.Code != http.StatusOK {
					t.Fatalf("step %d: explain = %d (%s)", i, rec.Code, rec.Body)
				}
				var got routed
				decodeJSON(t, rec, &got)
				warm1, cold1 := streamCounters(srv)
				if got.Cached {
					t.Fatalf("step %d: answered from the result cache", i)
				}
				if got.ReusedPartition != st.reused {
					t.Errorf("step %d: reused_partition = %v, want %v", i, got.ReusedPartition, st.reused)
				}
				wantFrom := int64(0)
				if st.fromStep >= 0 {
					wantFrom = gens[st.fromStep]
				}
				if got.Refreshed != (st.fromStep >= 0) || got.RefreshedFrom != wantFrom {
					t.Errorf("step %d: refreshed = %v from %d, want from %d", i, got.Refreshed, got.RefreshedFrom, wantFrom)
				}
				wantWarm := 0.0
				if st.fromStep >= 0 {
					wantWarm = 1
				}
				if d := warm1 - warm0; d != wantWarm {
					t.Errorf("step %d: warm counter +%v, want +%v", i, d, wantWarm)
				}
				for _, r := range coldReasons {
					want := 0.0
					if r == st.cold {
						want = 1
					}
					if d := cold1[r] - cold0[r]; d != want {
						t.Errorf("step %d: cold counter %q +%v, want +%v", i, r, d, want)
					}
				}
			}
		})
	}

	t.Run("busy and stale generation", func(t *testing.T) {
		testBusyAndStale(t)
	})
}

// settleGoroutines waits for the goroutine count to return to baseline.
func settleGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// testBusyAndStale runs compiled tasks directly, which pins the order a
// queue cannot: a run that holds the session while a successor
// generation's request arrives (busy), and a request compiled against a
// generation the session has since advanced past (stale_generation).
// Each fallback, and a cancelled session run, must leave no goroutine
// behind.
func testBusyAndStale(t *testing.T) {
	srv := NewCatalog(catalog.New(), nil)
	defer srv.Close()
	if rec := uploadCSV(t, srv, "t", streamCSV(40)); rec.Code != http.StatusCreated {
		t.Fatalf("upload = %d (%s)", rec.Code, rec.Body)
	}
	req := &ExplainRequest{
		Table:            "t",
		SQL:              "SELECT sum(v), g FROM t GROUP BY g",
		Outliers:         []string{"out"},
		AllOthersHoldOut: true,
		Algorithm:        "mc",
	}
	compile := func() *explainPlan {
		t.Helper()
		plan, _, err := srv.buildExplainTask(req, "")
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	run := func(ctx context.Context, plan *explainPlan, report func(any)) routed {
		t.Helper()
		out, err := plan.task.Run(ctx, 1, report)
		if err != nil && ctx.Err() == nil {
			t.Fatal(err)
		}
		m, _ := out.(map[string]any)
		var r routed
		r.Refreshed, _ = m["refreshed"].(bool)
		if from, ok := m["refreshed_from"].(int64); ok {
			r.RefreshedFrom = from
		}
		return r
	}
	coldDelta := func(before map[string]float64, reason string) float64 {
		_, after := streamCounters(srv)
		return after[reason] - before[reason]
	}
	baseline := runtime.NumGoroutine()

	// Busy: the first run holds the session inside its final progress
	// report while a successor generation's request arrives.
	first := compile()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	done := make(chan struct{})
	go func() {
		defer close(done)
		run(context.Background(), first, func(any) {
			once.Do(func() {
				close(entered)
				<-release
			})
		})
	}()
	<-entered
	if rec := appendCSV(t, srv, "t", streamBatchCSV(12)); rec.Code != http.StatusOK {
		t.Fatalf("append = %d", rec.Code)
	}
	second := compile()
	_, cold := streamCounters(srv)
	if got := run(context.Background(), second, func(any) {}); got.Refreshed {
		t.Error("busy session answered warm")
	}
	if d := coldDelta(cold, "busy"); d != 1 {
		t.Errorf("busy counter +%v, want +1", d)
	}
	close(release)
	<-done
	settleGoroutines(t, baseline, "after the busy fallback")

	// Stale: second was compiled at the generation before this append; a
	// run at the new generation moves the session past it.
	if rec := appendCSV(t, srv, "t", streamBatchCSV(12)); rec.Code != http.StatusOK {
		t.Fatalf("append = %d", rec.Code)
	}
	if got := run(context.Background(), compile(), func(any) {}); !got.Refreshed {
		t.Error("run at the newest generation did not refresh")
	}
	_, cold = streamCounters(srv)
	if got := run(context.Background(), second, func(any) {}); got.Refreshed {
		t.Error("stale request answered warm")
	}
	if d := coldDelta(cold, "stale_generation"); d != 1 {
		t.Errorf("stale_generation counter +%v, want +1", d)
	}
	settleGoroutines(t, baseline, "after the stale-generation fallback")

	// A cancelled session run: a fresh c has no pool, so it runs the
	// search, and the context is cancelled from inside it.
	c := 0.7
	req.C = &c
	ctx, cancel := context.WithCancel(context.Background())
	run(ctx, compile(), func(any) { cancel() })
	cancel()
	settleGoroutines(t, baseline, "after a cancelled session run")
}
