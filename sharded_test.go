package scorpion

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// outlierRows unions the flagged groups' provenance for accuracy scoring.
func outlierRows(t *testing.T, ds *synth.Dataset) *relation.RowSet {
	t.Helper()
	qres, err := RunQuery(ds.Table, "SELECT avg(v), g FROM synth GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	gO := relation.NewRowSet(ds.Table.NumRows())
	for _, k := range ds.OutlierKeys {
		row, ok := qres.Lookup(k)
		if !ok {
			t.Fatalf("missing group %q", k)
		}
		gO.Or(row.Group)
	}
	return gO
}

// shardedRequest builds the standard synthetic request used by the
// sharded-vs-unsharded fixtures.
func shardedRequest(ds *synth.Dataset, agg string, algo Algorithm, shards int) *Request {
	req := &Request{
		Table:            ds.Table,
		SQL:              fmt.Sprintf("SELECT %s(v), g FROM synth GROUP BY g", agg),
		Outliers:         ds.OutlierKeys,
		AllOthersHoldOut: true,
		Direction:        TooHigh,
		Attributes:       ds.DimNames(),
		Algorithm:        algo,
		Shards:           shards,
	}
	if algo == Naive {
		req.Bins = 6
	}
	return req
}

// TestShardedMatchesUnshardedTopPredicate: Explain with Shards: k returns
// the same top predicate as the unsharded path, for every algorithm, on
// the synthetic fixtures.
func TestShardedMatchesUnshardedTopPredicate(t *testing.T) {
	// NAIVE enumerates the global clause grid exhaustively, so sharded runs
	// rediscover the identical top predicate on any dataset. MC is greedy:
	// its shard-local merges are order-dependent, so its strict-equality
	// fixture is the 1-D dataset where the merge order cannot diverge (on
	// higher dimensions sharded MC hovers around the unsharded heuristic,
	// sometimes beating it — see the README's determinism caveats).
	ds2 := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 300, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 11,
	})
	ds1 := synth.Generate(synth.Config{
		Dims: 1, TuplesPerGroup: 300, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 11,
	})
	for _, tc := range []struct {
		algo Algorithm
		agg  string
		ds   *synth.Dataset
	}{
		{Naive, "sum", ds2},
		{MC, "sum", ds1},
		{DT, "avg", ds2},
	} {
		ds := tc.ds
		t.Run(tc.algo.String(), func(t *testing.T) {
			base, err := Explain(shardedRequest(ds, tc.agg, tc.algo, 1))
			if err != nil {
				t.Fatal(err)
			}
			if len(base.Explanations) == 0 {
				t.Fatal("unsharded run found nothing")
			}
			if base.Stats.Shards != 1 {
				t.Fatalf("unsharded Stats.Shards = %d", base.Stats.Shards)
			}
			for _, k := range []int{2, 4} {
				res, err := Explain(shardedRequest(ds, tc.agg, tc.algo, k))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Explanations) == 0 {
					t.Fatalf("shards=%d found nothing", k)
				}
				if res.Stats.Shards != k {
					t.Errorf("shards=%d: Stats.Shards = %d", k, res.Stats.Shards)
				}
				got, want := res.Explanations[0], base.Explanations[0]
				// DT partitions each shard's slice independently, so its
				// shard-local leaf boxes are data-dependent and the top
				// explanation can differ syntactically in either direction;
				// what must hold is that it explains the PLANTED truth at
				// least as well as the unsharded answer. The grid algorithms
				// (NAIVE, MC) enumerate the identical global grid and must
				// return the very same predicate.
				if tc.algo == DT {
					gO := outlierRows(t, ds)
					baseF1 := eval.Score(want.Predicate, ds.Table, gO, ds.OuterRows).F1
					gotF1 := eval.Score(got.Predicate, ds.Table, gO, ds.OuterRows).F1
					if gotF1 < baseF1-0.05 {
						t.Errorf("shards=%d: top %q F1 %.3f < unsharded %q F1 %.3f",
							k, got.Where, gotF1, want.Where, baseF1)
					}
					continue
				}
				if !got.Predicate.Equal(want.Predicate) {
					t.Errorf("shards=%d: top %q != unsharded %q", k, got.Where, want.Where)
				}
				if got.Influence != want.Influence {
					t.Errorf("shards=%d: influence %.9f != unsharded %.9f", k, got.Influence, want.Influence)
				}
			}
		})
	}
}

// TestShardedProgressReportsPerShard: a sharded search's Progress
// snapshots carry tagged per-shard best-so-far lists alongside the global
// best.
func TestShardedProgressReportsPerShard(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 400, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 17,
	})
	req := shardedRequest(ds, "sum", Naive, 3)
	req.Workers = 2
	req.ProgressInterval = 1 // sample as fast as possible
	var mu sync.Mutex
	var last Progress
	seenShards := false
	req.OnProgress = func(p Progress) {
		mu.Lock()
		defer mu.Unlock()
		last = p
		if len(p.Shards) > 0 {
			seenShards = true
		}
	}
	res, err := Explain(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shards != 3 {
		t.Fatalf("Stats.Shards = %d", res.Stats.Shards)
	}
	mu.Lock()
	defer mu.Unlock()
	if !seenShards {
		t.Fatal("no Progress snapshot carried per-shard bests")
	}
	if len(last.Best) == 0 {
		t.Fatal("final snapshot has no global best")
	}
	for _, sp := range last.Shards {
		if !strings.HasPrefix(sp.Shard, "shard-") {
			t.Errorf("shard tag %q", sp.Shard)
		}
	}
	if last.ScorerCalls == 0 {
		t.Error("progress never saw shard-local scorer calls")
	}
	if res.Stats.ScorerCalls == 0 {
		t.Error("Stats.ScorerCalls lost shard-local calls")
	}
}

// TestShardedCancellation: one context cancels every shard search
// mid-run; the partial result is flagged interrupted, like the unsharded
// path. The black-box median aggregate keeps the per-shard searches slow
// enough to catch in flight.
func TestShardedCancellation(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 3, TuplesPerGroup: 500, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 23,
	})
	req := shardedRequest(ds, "median", Naive, 4)
	req.Workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	res, err := ExplainContext(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if res == nil || !res.Stats.Interrupted {
		t.Fatalf("cancelled sharded search should return an interrupted partial result")
	}
}

// TestShardsKnobValidation: negative shard counts are rejected; 0 (auto)
// on a small table runs unsharded.
func TestShardsKnobValidation(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 50, Groups: 4, OutlierGroups: 2, Mu: 80, Seed: 1,
	})
	req := shardedRequest(ds, "sum", Naive, -1)
	if _, err := Explain(req); err == nil {
		t.Fatal("negative shards accepted")
	}
	req.Shards = 0
	res, err := Explain(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shards != 1 {
		t.Fatalf("auto shards on a tiny table ran %d shards", res.Stats.Shards)
	}
}
