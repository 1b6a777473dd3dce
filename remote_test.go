package scorpion_test

// Remote shard workers, exercised from the public API: a coordinator
// Request carrying a ShardDispatch must produce byte-identical output to
// the local sharded path — with a healthy fleet (every shard answered
// remotely) and under every injected worker failure (500s, hangs, deaths
// mid-stream, version skew), where per-shard local fallback recovers the
// exact answer. Lives in an external test package: internal/dispatch
// imports the scorpion root, so in-package tests cannot reach it.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/dispatch"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/synth"
	"github.com/scorpiondb/scorpion/internal/wire"
	"github.com/scorpiondb/scorpion/internal/worker"
)

// newTestWorker is an in-process stand-in for scorpion-server -worker: it
// answers POST /shards/search against the given tables through the same
// worker.Run a real deployment uses.
func newTestWorker(tb testing.TB, tables map[string]*scorpion.Table) *httptest.Server {
	tb.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		var task wire.Task
		if err := json.NewDecoder(r.Body).Decode(&task); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		tbl, ok := tables[task.Table]
		if !ok {
			http.Error(w, "no such table", http.StatusNotFound)
			return
		}
		res, err := worker.Run(r.Context(), tbl, &task, 2)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(res)
	}))
}

// remoteRequest mirrors sharded_test.go's fixture request (PR 4), with the
// dispatcher left for the caller to attach.
func remoteRequest(ds *synth.Dataset, agg string, algo scorpion.Algorithm, shards int) *scorpion.Request {
	req := &scorpion.Request{
		Table:            ds.Table,
		SQL:              fmt.Sprintf("SELECT %s(v), g FROM synth GROUP BY g", agg),
		Outliers:         ds.OutlierKeys,
		AllOthersHoldOut: true,
		Direction:        scorpion.TooHigh,
		Attributes:       ds.DimNames(),
		Algorithm:        algo,
		Shards:           shards,
	}
	if algo == scorpion.Naive {
		req.Bins = 6
	}
	return req
}

// assertSameAnswer requires the remote-sharded result to be
// indistinguishable from the reference: same explanation list, same
// predicates, bitwise-equal influences.
func assertSameAnswer(t *testing.T, got, want *scorpion.Result) {
	t.Helper()
	if len(got.Explanations) == 0 || len(got.Explanations) != len(want.Explanations) {
		t.Fatalf("explanation count %d, want %d", len(got.Explanations), len(want.Explanations))
	}
	for i := range got.Explanations {
		g, w := got.Explanations[i], want.Explanations[i]
		if !g.Predicate.Equal(w.Predicate) || g.Where != w.Where {
			t.Fatalf("explanation %d: %q != %q", i, g.Where, w.Where)
		}
		if g.Influence != w.Influence {
			t.Fatalf("explanation %d: influence %.17g != %.17g", i, g.Influence, w.Influence)
		}
	}
}

// TestRemoteShardedMatchesLocal is the tentpole acceptance criterion on
// the PR 4 fixtures: with every shard answered by a remote worker, the
// combined result matches the local-sharded run exactly — NAIVE on the
// 2-D dataset, MC on the 1-D dataset (where its greedy merges are
// deterministic).
func TestRemoteShardedMatchesLocal(t *testing.T) {
	ds2 := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 300, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 11,
	})
	ds1 := synth.Generate(synth.Config{
		Dims: 1, TuplesPerGroup: 300, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 11,
	})
	for _, tc := range []struct {
		algo scorpion.Algorithm
		ds   *synth.Dataset
	}{
		{scorpion.Naive, ds2},
		{scorpion.MC, ds1},
	} {
		t.Run(tc.algo.String(), func(t *testing.T) {
			local, err := scorpion.Explain(remoteRequest(tc.ds, "sum", tc.algo, 2))
			if err != nil {
				t.Fatal(err)
			}
			srv := newTestWorker(t, map[string]*scorpion.Table{"synth": tc.ds.Table})
			defer srv.Close()
			pool, err := dispatch.NewPool(dispatch.Options{Peers: []string{srv.URL}})
			if err != nil {
				t.Fatal(err)
			}
			req := remoteRequest(tc.ds, "sum", tc.algo, 2)
			req.ShardDispatch = pool.For("synth", 1)
			remote, err := scorpion.Explain(req)
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnswer(t, remote, local)
			st := pool.Stats()
			if st.Succeeded == 0 || st.Fallbacks != 0 {
				t.Fatalf("fleet did not answer the shards: %+v", st)
			}
		})
	}
}

// TestRemoteWorkerFailureFallsBackLocal injects every worker failure mode
// the dispatch layer must survive; in each, the coordinator's per-shard
// local fallback recovers and the final answer is identical to a run with
// no dispatcher at all.
func TestRemoteWorkerFailureFallsBackLocal(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 300, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 11,
	})
	want, err := scorpion.Explain(remoteRequest(ds, "sum", scorpion.Naive, 2))
	if err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	defer close(release)
	cases := []struct {
		name    string
		opts    dispatch.Options
		handler http.HandlerFunc
	}{
		{"worker answers 500", dispatch.Options{Retries: -1}, func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "internal", http.StatusInternalServerError)
		}},
		{"worker rejects task version", dispatch.Options{Retries: -1}, func(w http.ResponseWriter, r *http.Request) {
			// What a version-skewed real worker answers (see handleShardSearch).
			http.Error(w, "wire version not supported", http.StatusBadRequest)
		}},
		{"worker hangs past the shard timeout", dispatch.Options{Retries: -1, ShardTimeout: 100 * time.Millisecond},
			func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body)
				select {
				case <-r.Context().Done():
				case <-release:
				}
			}},
		{"worker dies mid-stream", dispatch.Options{Retries: -1}, func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, `{"version":1,"candidates":[{"cla`)
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler) // sever the connection mid-body
		}},
		{"worker answers a skewed result version", dispatch.Options{Retries: -1}, func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			json.NewEncoder(w).Encode(&wire.Result{Version: wire.Version + 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			opts := tc.opts
			opts.Peers = []string{srv.URL}
			opts.Backoff = time.Millisecond
			pool, err := dispatch.NewPool(opts)
			if err != nil {
				t.Fatal(err)
			}
			req := remoteRequest(ds, "sum", scorpion.Naive, 2)
			req.ShardDispatch = pool.For("synth", 1)
			got, err := scorpion.Explain(req)
			if err != nil {
				t.Fatalf("fleet failure leaked out of the search: %v", err)
			}
			assertSameAnswer(t, got, want)
			st := pool.Stats()
			if st.Succeeded != 0 || st.Fallbacks == 0 {
				t.Fatalf("expected every dispatch to fall back: %+v", st)
			}
		})
	}
}

// TestRemoteWorkerInterruptedOutcomeFallsBack: a worker whose search was
// interrupted (deadline, cancellation on ITS side) must not feed a partial
// candidate stream into the combiner; the coordinator re-searches locally.
func TestRemoteWorkerInterruptedOutcomeFallsBack(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 300, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 11,
	})
	want, err := scorpion.Explain(remoteRequest(ds, "sum", scorpion.Naive, 2))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		json.NewEncoder(w).Encode(&wire.Result{Version: wire.Version, Interrupted: true})
	}))
	defer srv.Close()
	pool, err := dispatch.NewPool(dispatch.Options{Peers: []string{srv.URL}, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	req := remoteRequest(ds, "sum", scorpion.Naive, 2)
	req.ShardDispatch = pool.For("synth", 1)
	got, err := scorpion.Explain(req)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnswer(t, got, want)
}

// TestRemoteTaskWireSizeCompact is the wire-format acceptance criterion on
// the memory-lane 1M-row workload: a shard task whose provenance rides the
// adaptive (run-encoded) codec must cost at most a tenth of the same task
// with dense-bitmap provenance.
func TestRemoteTaskWireSizeCompact(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-row fixture")
	}
	ds := synth.Generate(synth.Config{
		Dims: 1, TuplesPerGroup: 1000, Groups: 1000, OutlierGroups: 4, Mu: 80, Seed: 37,
	})
	n := ds.Table.NumRows()
	if n != 1_000_000 {
		t.Fatalf("fixture rows = %d, want 1M", n)
	}
	qres, err := scorpion.RunQuery(ds.Table, "SELECT sum(v), g FROM synth GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	task := func(groups []wire.Group) int {
		data, err := json.Marshal(&wire.Task{
			Version: wire.Version, Table: "synth", Rows: n,
			SQL: "SELECT sum(v), g FROM synth GROUP BY g", WindowLo: 0, WindowHi: n,
			Algorithm: "naive", Bins: 10, Attrs: ds.DimNames(),
			Lambda: 0.5, C: 0.2, Outliers: groups,
		})
		if err != nil {
			t.Fatal(err)
		}
		return len(data)
	}
	var compact, dense []wire.Group
	for _, k := range ds.OutlierKeys {
		row, ok := qres.Lookup(k)
		if !ok {
			t.Fatalf("missing group %q", k)
		}
		compact = append(compact, wire.Group{Key: k, Direction: 1, Rows: row.Group.AppendBinary(nil)})
		bm := relation.NewDenseRowSet(n)
		row.Group.ForEach(func(r int) { bm.Add(r) })
		if bm.Encoding() != "dense" {
			t.Fatalf("dense reference decayed to %q", bm.Encoding())
		}
		dense = append(dense, wire.Group{Key: k, Direction: 1, Rows: bm.AppendBinary(nil)})
	}
	compactBytes, denseBytes := task(compact), task(dense)
	t.Logf("shard task bytes: adaptive %d, dense %d (%.1fx)",
		compactBytes, denseBytes, float64(denseBytes)/float64(compactBytes))
	if compactBytes*10 > denseBytes {
		t.Fatalf("run-encoded task %d bytes, dense equivalent %d: want <= 1/10", compactBytes, denseBytes)
	}
}
