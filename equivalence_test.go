package scorpion

// Streaming-ingestion equivalence suite — the append path's proof
// obligation: a table ingested as K append batches (through the Appender's
// shared-backing snapshot chain) must be INDISTINGUISHABLE to the search
// from a one-shot load. Table-driven over all three algorithms ×
// sharded/unsharded × K ∈ {1, 2, 7}: same top predicate, scores within
// 1e-9.

import (
	"fmt"
	"math"
	"testing"

	"github.com/scorpiondb/scorpion/internal/synth"
)

// ingestKBatches rebuilds tbl's rows through an Appender in k batches.
func ingestKBatches(t *testing.T, tbl *Table, k int) *Table {
	t.Helper()
	app := NewAppender(tbl.Schema())
	n := tbl.NumRows()
	for b := 0; b < k; b++ {
		lo, hi := b*n/k, (b+1)*n/k
		rows := make([]Row, 0, hi-lo)
		for r := lo; r < hi; r++ {
			rows = append(rows, tbl.Row(r))
		}
		if _, err := app.Append(rows); err != nil {
			t.Fatal(err)
		}
	}
	got := app.Snapshot()
	if got.NumRows() != n {
		t.Fatalf("ingested %d rows, want %d", got.NumRows(), n)
	}
	return got
}

func TestAppendIngestionEquivalentToOneShot(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 100, Groups: 6, OutlierGroups: 2, Mu: 80, Seed: 9,
	})
	oneShot := ds.Table

	algos := []struct {
		name string
		algo Algorithm
		agg  string
		bins int
	}{
		{"naive", Naive, "sum", 8},
		{"mc", MC, "sum", 0},
		{"dt", DT, "avg", 0},
	}
	request := func(tbl *Table, a int, shards int) *Request {
		return &Request{
			Table:            tbl,
			SQL:              "SELECT " + algos[a].agg + "(v), g FROM synth GROUP BY g",
			Outliers:         ds.OutlierKeys,
			AllOthersHoldOut: true,
			Direction:        TooHigh,
			Attributes:       ds.DimNames(),
			Algorithm:        algos[a].algo,
			Bins:             algos[a].bins,
			Shards:           shards,
		}
	}

	for a := range algos {
		for _, shards := range []int{1, 2} {
			// The one-shot baseline for this (algorithm, sharding) cell.
			baseline, err := Explain(request(oneShot, a, shards))
			if err != nil {
				t.Fatalf("%s/shards=%d baseline: %v", algos[a].name, shards, err)
			}
			if len(baseline.Explanations) == 0 {
				t.Fatalf("%s/shards=%d baseline found nothing", algos[a].name, shards)
			}
			for _, k := range []int{1, 2, 7} {
				name := fmt.Sprintf("%s/shards=%d/K=%d", algos[a].name, shards, k)
				t.Run(name, func(t *testing.T) {
					ingested := ingestKBatches(t, oneShot, k)
					res, err := Explain(request(ingested, a, shards))
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Explanations) != len(baseline.Explanations) {
						t.Fatalf("explanations %d != baseline %d",
							len(res.Explanations), len(baseline.Explanations))
					}
					if !res.Explanations[0].Predicate.Equal(baseline.Explanations[0].Predicate) {
						t.Fatalf("top predicate %q != baseline %q",
							res.Explanations[0].Where, baseline.Explanations[0].Where)
					}
					for i := range res.Explanations {
						d := math.Abs(res.Explanations[i].Influence - baseline.Explanations[i].Influence)
						if d > 1e-9 {
							t.Fatalf("explanation %d influence %v != baseline %v (Δ %g)",
								i, res.Explanations[i].Influence, baseline.Explanations[i].Influence, d)
						}
					}
					if res.Stats.Shards != baseline.Stats.Shards {
						t.Fatalf("shards %d != baseline %d", res.Stats.Shards, baseline.Stats.Shards)
					}
				})
			}
		}
	}
}
