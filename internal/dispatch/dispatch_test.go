package dispatch

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/shard"
	"github.com/scorpiondb/scorpion/internal/wire"
)

// testTable is a tiny two-group table.
func testTable(t *testing.T) *relation.Table {
	t.Helper()
	schema, err := relation.NewSchema(
		relation.Column{Name: "g", Kind: relation.Discrete},
		relation.Column{Name: "a", Kind: relation.Continuous},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	if err != nil {
		t.Fatal(err)
	}
	b := relation.NewBuilder(schema)
	for i := 0; i < 40; i++ {
		g := "hold"
		if i%2 == 0 {
			g = "out"
		}
		b.MustAppend(relation.Row{relation.S(g), relation.F(float64(i % 10)), relation.F(10)})
	}
	return b.Build()
}

// testShard builds a minimal remote-shard description over testTable —
// enough structure for buildTask to serialize, none of it searched (the
// fake workers answer canned results).
func testShard(t *testing.T) *shard.RemoteShard {
	t.Helper()
	v := testTable(t).Window(10, 30)
	out := relation.NewRowSet(v.NumRows())
	out.AddRange(0, 5)
	task := &influence.Task{
		Table:    v,
		Lambda:   0.5,
		C:        0.2,
		Outliers: []influence.Group{{Key: "out", Rows: out, Direction: 1}},
	}
	return &shard.RemoteShard{Index: 3, View: v, Task: task, Attrs: []string{"a"}, Workers: 1}
}

// testPlan is the Plan a NAIVE shard search is dispatched from.
func testPlan(t *testing.T) *scorpion.Plan {
	t.Helper()
	p, err := (&scorpion.Request{
		Table: testTable(t), SQL: "SELECT sum(v), g FROM t GROUP BY g", Outliers: []string{"out"},
		Bins: 6,
	}).Plan()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func cannedOutcome(t *testing.T) *partition.Outcome {
	t.Helper()
	p, err := predicate.New(predicate.NewRangeClause(1, "a", 2, 5, false))
	if err != nil {
		t.Fatal(err)
	}
	return &partition.Outcome{Candidates: []partition.Candidate{{Pred: p, Score: 3}}, Work: 7}
}

// okWorker answers every shard search with the canned outcome after
// validating the envelope it received.
func okWorker(t *testing.T, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		if hits != nil {
			hits.Add(1)
		}
		var task wire.Task
		if err := json.NewDecoder(r.Body).Decode(&task); err != nil {
			t.Errorf("worker: decode task: %v", err)
		}
		if err := task.Validate(); err != nil {
			t.Errorf("worker: invalid task: %v", err)
		}
		if task.Table != "readings" || task.WindowLo != 10 || task.WindowHi != 30 ||
			task.Algorithm != "naive" || task.Bins != 6 || task.TopK != shard.DefaultTopPerShard {
			t.Errorf("worker: wrong task envelope: %+v", task)
		}
		json.NewEncoder(w).Encode(wire.EncodeOutcome(cannedOutcome(t)))
	}))
}

func failWorker(status int, hits *atomic.Int64) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		http.Error(w, "boom", status)
	}))
}

func mustPool(t *testing.T, opts Options) *Pool {
	t.Helper()
	p, err := NewPool(opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPoolRequiresPeers(t *testing.T) {
	if _, err := NewPool(Options{}); err == nil {
		t.Fatal("empty peer list accepted")
	}
}

func TestRemoteNilForUnserializableAlgorithms(t *testing.T) {
	p := mustPool(t, Options{Peers: []string{"http://unused"}})
	if p.For("t", 1).Remote(testPlan(t), scorpion.DT) != nil {
		t.Fatal("DT produced a remote searcher; its parameters do not serialize")
	}
}

func TestDispatchSuccess(t *testing.T) {
	srv := okWorker(t, nil)
	defer srv.Close()
	p := mustPool(t, Options{Peers: []string{srv.URL}})
	search := p.For("readings", 1).Remote(testPlan(t), scorpion.Naive)
	outcome, ok := search(context.Background(), testShard(t))
	if !ok {
		t.Fatal("dispatch fell back with a healthy worker")
	}
	want := cannedOutcome(t)
	if outcome.Work != want.Work || len(outcome.Candidates) != 1 ||
		outcome.Candidates[0].Pred.Key() != want.Candidates[0].Pred.Key() {
		t.Fatalf("remote outcome drifted: %+v", outcome)
	}
	s := p.Stats()
	if s.Dispatched != 1 || s.Succeeded != 1 || s.Fallbacks != 0 || s.Retries != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesOut == 0 || s.BytesIn == 0 || s.DispatchNanos == 0 {
		t.Fatalf("byte/latency accounting missing: %+v", s)
	}
}

func TestDispatchRetriesAcrossPeers(t *testing.T) {
	var badHits, goodHits atomic.Int64
	bad := failWorker(http.StatusInternalServerError, &badHits)
	defer bad.Close()
	good := okWorker(t, &goodHits)
	defer good.Close()
	// Round-robin starts at peer 0, so the failing peer is hit first.
	p := mustPool(t, Options{Peers: []string{bad.URL, good.URL}, Backoff: time.Millisecond})
	_, ok := p.For("readings", 1).Remote(testPlan(t), scorpion.Naive)(context.Background(), testShard(t))
	if !ok {
		t.Fatal("dispatch fell back despite a healthy second peer")
	}
	if badHits.Load() != 1 || goodHits.Load() != 1 {
		t.Fatalf("hits: bad %d good %d", badHits.Load(), goodHits.Load())
	}
	s := p.Stats()
	if s.Retries != 1 || s.Succeeded != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// The failed peer is benched: the next dispatch goes straight to the
	// healthy one even though round-robin points at the benched peer.
	if _, ok := p.For("readings", 1).Remote(testPlan(t), scorpion.Naive)(context.Background(), testShard(t)); !ok {
		t.Fatal("second dispatch fell back")
	}
	if badHits.Load() != 1 {
		t.Fatalf("benched peer was retried (%d hits)", badHits.Load())
	}
}

func TestDispatchFallsBackWhenFleetIsDown(t *testing.T) {
	bad := failWorker(http.StatusInternalServerError, nil)
	defer bad.Close()
	p := mustPool(t, Options{Peers: []string{bad.URL}, Retries: -1})
	if _, ok := p.For("readings", 1).Remote(testPlan(t), scorpion.Naive)(context.Background(), testShard(t)); ok {
		t.Fatal("dispatch claimed success against a failing fleet")
	}
	s := p.Stats()
	if s.Fallbacks != 1 || s.Succeeded != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDispatchTimesOutHungWorker(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // unread bodies suppress disconnect detection
		select {
		case <-r.Context().Done(): // the coordinator gave up
		case <-release: // test teardown
		}
	}))
	defer func() {
		close(release)
		hung.Close()
	}()
	p := mustPool(t, Options{Peers: []string{hung.URL}, ShardTimeout: 50 * time.Millisecond, Retries: -1})
	start := time.Now()
	_, ok := p.For("readings", 1).Remote(testPlan(t), scorpion.Naive)(context.Background(), testShard(t))
	if ok {
		t.Fatal("hung worker reported success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("per-shard timeout did not bound the attempt (%s)", elapsed)
	}
	if s := p.Stats(); s.Fallbacks != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDispatchRejectsVersionMismatch(t *testing.T) {
	skewed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		res := wire.EncodeOutcome(cannedOutcome(t))
		res.Version = wire.Version + 1
		json.NewEncoder(w).Encode(res)
	}))
	defer skewed.Close()
	p := mustPool(t, Options{Peers: []string{skewed.URL}, Retries: -1})
	if _, ok := p.For("readings", 1).Remote(testPlan(t), scorpion.Naive)(context.Background(), testShard(t)); ok {
		t.Fatal("version-skewed result accepted")
	}
}

func TestBenchedPeerIsProbedBeforeReadmission(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var healthz atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			healthz.Add(1)
			w.WriteHeader(http.StatusOK)
			return
		}
		if failing.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(wire.EncodeOutcome(cannedOutcome(t)))
	}))
	defer srv.Close()
	p := mustPool(t, Options{Peers: []string{srv.URL}, Retries: -1, BenchFor: 20 * time.Millisecond})
	search := p.For("readings", 1).Remote(testPlan(t), scorpion.Naive)
	if _, ok := search(context.Background(), testShard(t)); ok {
		t.Fatal("failing worker reported success")
	}
	// While benched, the peer is skipped without any HTTP traffic.
	if _, ok := search(context.Background(), testShard(t)); ok {
		t.Fatal("benched-fleet dispatch reported success")
	}
	failing.Store(false)
	time.Sleep(30 * time.Millisecond) // let the bench expire
	if _, ok := search(context.Background(), testShard(t)); !ok {
		t.Fatal("recovered worker not readmitted")
	}
	if healthz.Load() == 0 {
		t.Fatal("peer readmitted without a health probe")
	}
}
