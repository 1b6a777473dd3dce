package scorpion

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/scorpiondb/scorpion/internal/synth"
)

// streamFixture builds a group-contiguous table whose "out" group has a
// clear cause region (a ∈ [5, 8] carries v=100 against a background of 10).
func streamFixture(t *testing.T) (*Schema, []Row) {
	t.Helper()
	schema, err := NewSchema(
		Column{Name: "g", Kind: Discrete},
		Column{Name: "a", Kind: Continuous},
		Column{Name: "v", Kind: Continuous},
	)
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	appendGroup := func(g string, n int, outlier bool) {
		for i := 0; i < n; i++ {
			a := float64(i % 10)
			v := 10.0
			if outlier && a >= 5 && a <= 8 {
				v = 100
			}
			rows = append(rows, Row{S(g), F(a), F(v)})
		}
	}
	appendGroup("hold1", 40, false)
	appendGroup("hold2", 40, false)
	appendGroup("out", 40, true)
	return schema, rows
}

// streamRows generates an append batch following the fixture's pattern.
func streamBatch(n int, withOutlierRows bool) []Row {
	var rows []Row
	for i := 0; i < n; i++ {
		a := float64((i * 3) % 10)
		v := 10.0
		g := []string{"hold1", "hold2"}[i%2]
		if withOutlierRows && i%3 == 0 {
			g = "out"
			if a >= 5 && a <= 8 {
				v = 100
			}
		}
		rows = append(rows, Row{S(g), F(a), F(v)})
	}
	return rows
}

func streamRequest(tbl *Table) *Request {
	return &Request{
		Table:            tbl,
		SQL:              "SELECT sum(v), g FROM t GROUP BY g",
		Outliers:         []string{"out"},
		AllOthersHoldOut: true,
		Direction:        TooHigh,
		Algorithm:        Naive,
	}
}

func buildFrom(t *testing.T, schema *Schema, rows []Row) *Table {
	t.Helper()
	b := NewBuilder(schema)
	for _, r := range rows {
		b.MustAppend(r)
	}
	return b.Build()
}

func TestRefresherWarmMatchesCold(t *testing.T) {
	schema, rows := streamFixture(t)
	base := buildFrom(t, schema, rows)
	f, err := NewRefresher(streamRequest(base))
	if err != nil {
		t.Fatal(err)
	}
	res, refreshed, err := f.ExplainTable(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed || res.Stats.Refreshed {
		t.Fatal("first run reported as refreshed")
	}
	if len(res.Explanations) == 0 {
		t.Fatal("cold run found nothing")
	}

	app := AppenderFor(base)
	for batch := 0; batch < 3; batch++ {
		succ, err := app.Append(streamBatch(12, true))
		if err != nil {
			t.Fatal(err)
		}
		warm, refreshed, err := f.ExplainTable(context.Background(), succ)
		if err != nil {
			t.Fatal(err)
		}
		if !refreshed || !warm.Stats.Refreshed {
			t.Fatalf("batch %d: expected warm refresh", batch)
		}
		// The warm re-score must agree with a full cold run on the grown
		// table: same top predicate, same exact score.
		coldRes, err := Explain(streamRequest(succ))
		if err != nil {
			t.Fatal(err)
		}
		if len(warm.Explanations) == 0 || len(coldRes.Explanations) == 0 {
			t.Fatalf("batch %d: empty explanations (warm %d cold %d)",
				batch, len(warm.Explanations), len(coldRes.Explanations))
		}
		if !warm.Explanations[0].Predicate.Equal(coldRes.Explanations[0].Predicate) {
			t.Fatalf("batch %d: warm top %q != cold top %q",
				batch, warm.Explanations[0].Where, coldRes.Explanations[0].Where)
		}
		if d := math.Abs(warm.Explanations[0].Influence - coldRes.Explanations[0].Influence); d > 1e-9 {
			t.Fatalf("batch %d: warm influence %v != cold %v (Δ %g)",
				batch, warm.Explanations[0].Influence, coldRes.Explanations[0].Influence, d)
		}
		// Warm refreshes must be incremental: far fewer scorer calls than
		// the cold search.
		if warm.Stats.ScorerCalls >= coldRes.Stats.ScorerCalls {
			t.Fatalf("batch %d: warm path spent %d scorer calls, cold %d",
				batch, warm.Stats.ScorerCalls, coldRes.Stats.ScorerCalls)
		}
		// The refreshed query result reflects the grown data.
		wr, ok1 := warm.QueryResult.Lookup("out")
		cr, ok2 := coldRes.QueryResult.Lookup("out")
		if !ok1 || !ok2 || math.Abs(wr.Value-cr.Value) > 1e-9 {
			t.Fatalf("batch %d: warm group value %v != cold %v", batch, wr.Value, cr.Value)
		}
	}
}

func TestRefresherColdFallbacks(t *testing.T) {
	schema, rows := streamFixture(t)
	base := buildFrom(t, schema, rows)

	t.Run("new group under all-others-holdout", func(t *testing.T) {
		f, _ := NewRefresher(streamRequest(base))
		if _, _, err := f.ExplainTable(context.Background(), base); err != nil {
			t.Fatal(err)
		}
		app := AppenderFor(base)
		succ, err := app.Append([]Row{{S("brandnew"), F(1), F(10)}})
		if err != nil {
			t.Fatal(err)
		}
		res, refreshed, err := f.ExplainTable(context.Background(), succ)
		if err != nil {
			t.Fatal(err)
		}
		if refreshed || res.Stats.Refreshed {
			t.Fatal("label-set change served warm")
		}
		// The cold fallback rebuilt the snapshot: the NEXT append is warm.
		succ2, err := app.Append(streamBatch(6, true))
		if err != nil {
			t.Fatal(err)
		}
		if _, refreshed, err = f.ExplainTable(context.Background(), succ2); err != nil {
			t.Fatal(err)
		}
		if !refreshed {
			t.Fatal("refresher did not recover after cold fallback")
		}
	})

	t.Run("growth past MaxWarmGrowth", func(t *testing.T) {
		f, _ := NewRefresher(streamRequest(base))
		if _, _, err := f.ExplainTable(context.Background(), base); err != nil {
			t.Fatal(err)
		}
		app := AppenderFor(base)
		// Grow by more than 50% in one go.
		succ, err := app.Append(streamBatch(base.NumRows(), true))
		if err != nil {
			t.Fatal(err)
		}
		_, refreshed, err := f.ExplainTable(context.Background(), succ)
		if err != nil {
			t.Fatal(err)
		}
		if refreshed {
			t.Fatal("oversized growth served warm")
		}
	})

	t.Run("black-box aggregate never warms", func(t *testing.T) {
		req := streamRequest(base)
		req.SQL = "SELECT median(v), g FROM t GROUP BY g"
		f, _ := NewRefresher(req)
		if _, _, err := f.ExplainTable(context.Background(), base); err != nil {
			t.Fatal(err)
		}
		app := AppenderFor(base)
		succ, err := app.Append(streamBatch(6, true))
		if err != nil {
			t.Fatal(err)
		}
		res, refreshed, err := f.ExplainTable(context.Background(), succ)
		if err != nil {
			t.Fatal(err)
		}
		if refreshed || res.Stats.Refreshed {
			t.Fatal("black-box aggregate served warm")
		}
		if len(res.Explanations) == 0 {
			t.Fatal("cold fallback found nothing")
		}
	})

	t.Run("shrunken table vs schema change", func(t *testing.T) {
		// The two operator problems must surface as distinct reasons: a
		// table with FEWER rows than the tracker has folded in is not an
		// append successor at all, while a schema mismatch is a different
		// table entirely.
		f, _ := NewRefresher(streamRequest(base))
		if _, _, err := f.ExplainTable(context.Background(), base); err != nil {
			t.Fatal(err)
		}
		schema, rows := streamFixture(t)
		shrunk := buildFrom(t, schema, rows[:len(rows)-10])
		res, refreshed, err := f.ExplainTable(context.Background(), shrunk)
		if err != nil {
			t.Fatal(err)
		}
		if refreshed || res.Stats.Refreshed {
			t.Fatal("shrunken table served warm")
		}
		if got := f.FallbackReason(); got != "table_shrunk" {
			t.Fatalf("shrunken table fallback reason = %q, want table_shrunk", got)
		}

		f2, _ := NewRefresher(streamRequest(base))
		if _, _, err := f2.ExplainTable(context.Background(), base); err != nil {
			t.Fatal(err)
		}
		wideSchema, err := NewSchema(
			Column{Name: "g", Kind: Discrete},
			Column{Name: "a", Kind: Continuous},
			Column{Name: "v", Kind: Continuous},
			Column{Name: "extra", Kind: Continuous},
		)
		if err != nil {
			t.Fatal(err)
		}
		wideRows := make([]Row, 0, len(rows))
		for _, r := range rows {
			wideRows = append(wideRows, append(append(Row{}, r...), F(1)))
		}
		wide := buildFrom(t, wideSchema, wideRows)
		res, refreshed, err = f2.ExplainTable(context.Background(), wide)
		if err != nil {
			t.Fatal(err)
		}
		if refreshed || res.Stats.Refreshed {
			t.Fatal("schema change served warm")
		}
		if got := f2.FallbackReason(); got != "schema_changed" {
			t.Fatalf("schema change fallback reason = %q, want schema_changed", got)
		}
	})

	t.Run("nil table", func(t *testing.T) {
		f, _ := NewRefresher(streamRequest(base))
		if _, _, err := f.ExplainTable(context.Background(), nil); err == nil {
			t.Fatal("nil table accepted")
		}
	})
}

func TestRefresherInterruptedRunDoesNotPoisonWarmState(t *testing.T) {
	schema, rows := streamFixture(t)
	base := buildFrom(t, schema, rows)
	f, _ := NewRefresher(streamRequest(base))
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := f.ExplainTable(canceled, base); err == nil {
		t.Fatal("canceled context succeeded")
	}
	// The interrupted run must not have seeded candidates: the next call
	// runs cold and succeeds.
	res, refreshed, err := f.ExplainTable(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed {
		t.Fatal("served warm from an interrupted run's state")
	}
	if len(res.Explanations) == 0 {
		t.Fatal("recovery run found nothing")
	}
}

func TestRefresherWarmKeepsShardCount(t *testing.T) {
	schema, rows := streamFixture(t)
	base := buildFrom(t, schema, rows)
	req := streamRequest(base)
	req.Shards = 2
	f, _ := NewRefresher(req)
	cold, _, err := f.ExplainTable(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	app := AppenderFor(base)
	succ, err := app.Append(streamBatch(9, true))
	if err != nil {
		t.Fatal(err)
	}
	warm, refreshed, err := f.ExplainTable(context.Background(), succ)
	if err != nil {
		t.Fatal(err)
	}
	if !refreshed {
		t.Fatal("sharded request did not refresh warm")
	}
	// The warm result must not silently drop the request's sharding: it
	// reports the shard count of the search that produced the candidates.
	if warm.Stats.Shards != cold.Stats.Shards {
		t.Fatalf("warm Stats.Shards = %d, cold = %d", warm.Stats.Shards, cold.Stats.Shards)
	}
}

// TestStatsCandidatesCountsPool: Stats.Candidates counts the deduped,
// exact-scored pool the top-k is cut from, not the explanations returned —
// on the spine and on a warm refresh alike.
func TestStatsCandidatesCountsPool(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 100, Groups: 6, OutlierGroups: 2, Mu: 80, Seed: 5,
	})
	req := sumRequest(ds, Naive)
	req.TopK = 1
	res, err := Explain(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) != 1 || res.Stats.Candidates <= len(res.Explanations) {
		t.Fatalf("spine: %d explanations, Stats.Candidates = %d; want 1 cut from a larger pool",
			len(res.Explanations), res.Stats.Candidates)
	}

	schema, rows := streamFixture(t)
	base := buildFrom(t, schema, rows)
	r := streamRequest(base)
	r.TopK = 1
	s := NewSession(r)
	cold, err := s.Explain(context.Background(), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	succ, err := AppenderFor(base).Append(streamBatch(12, true))
	if err != nil {
		t.Fatal(err)
	}
	r.Table = succ
	warm, err := s.Explain(context.Background(), r, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Refreshed {
		t.Fatalf("second run did not refresh warm: %s", s.FallbackReason())
	}
	if warm.Stats.Candidates != cold.Stats.Candidates || warm.Stats.Candidates <= len(warm.Explanations) {
		t.Fatalf("refresh: Stats.Candidates = %d (cold %d) for %d explanations; want the cold pool's size",
			warm.Stats.Candidates, cold.Stats.Candidates, len(warm.Explanations))
	}
}

// newCauseBatch is an append batch that plants a cause the fixture does not
// have: half its rows go to "out" at a = 1 with v = 100, where no predicate
// of the cold run's pool, built around a ∈ [5, 8], reaches.
func newCauseBatch(n int) []Row {
	var rows []Row
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			rows = append(rows, Row{S("out"), F(1), F(100)})
			continue
		}
		rows = append(rows, Row{S([]string{"hold1", "hold2"}[i/2%2]), F(float64(i % 10)), F(10)})
	}
	return rows
}

// staleRefreshLedger records the cells of TestWarmRefreshFindsNewCause whose
// warm top-1 misses the cold one-shot's: a warm refresh re-scores the old
// pool only, so a cause the append plants outside it goes unseen (Finding
// 12). Each value is the warm top influence over the cold one, rounded down
// to two places; a cell may not fall below it, and one whose warm top-1
// matches the cold one must leave the ledger.
var staleRefreshLedger = map[string]float64{
	"naive/new-cause": 0.67,
	"mc/new-cause":    0.70,
}

// TestWarmRefreshFindsNewCause: for NAIVE and MC, after an append, a warm
// refresh tops at the predicate a cold one-shot run on the grown table tops
// at, with the same influence bits — the tail fold keeps the summation
// order. A batch that reinforces the fixture's cause is the control; a
// batch that plants a new cause is on staleRefreshLedger.
func TestWarmRefreshFindsNewCause(t *testing.T) {
	schema, rows := streamFixture(t)
	for _, algo := range []Algorithm{Naive, MC} {
		for _, b := range []struct {
			name  string
			batch []Row
		}{{"reinforcing", streamBatch(12, true)}, {"new-cause", newCauseBatch(24)}} {
			cell := fmt.Sprintf("%v/%s", algo, b.name)
			base := buildFrom(t, schema, rows)
			req := streamRequest(base)
			req.Algorithm = algo
			f, err := NewRefresher(req)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := f.ExplainTable(context.Background(), base); err != nil {
				t.Fatal(err)
			}
			succ, err := AppenderFor(base).Append(b.batch)
			if err != nil {
				t.Fatal(err)
			}
			warm, refreshed, err := f.ExplainTable(context.Background(), succ)
			if err != nil {
				t.Fatal(err)
			}
			if !refreshed {
				t.Fatalf("%s: the append was not refreshed warm", cell)
			}
			coldReq := streamRequest(succ)
			coldReq.Algorithm = algo
			cold, err := Explain(coldReq)
			if err != nil {
				t.Fatal(err)
			}
			if len(warm.Explanations) == 0 || len(cold.Explanations) == 0 {
				t.Fatalf("%s: %d warm explanations, %d cold", cell, len(warm.Explanations), len(cold.Explanations))
			}
			w, c := warm.Explanations[0], cold.Explanations[0]
			same := w.Predicate.Equal(c.Predicate) && math.Float64bits(w.Influence) == math.Float64bits(c.Influence)
			recorded, ok := staleRefreshLedger[cell]
			switch {
			case same && ok:
				t.Errorf("%s: the warm top-1 matches the cold one: remove it from the ledger", cell)
			case !same && !ok:
				t.Errorf("%s: warm tops at %s (%v), cold at %s (%v)", cell, w.Where, w.Influence, c.Where, c.Influence)
			case !same && math.Floor(w.Influence/c.Influence*100)/100 < recorded:
				t.Errorf("%s: warm tops at %.3f of cold, below its ledger ratio %.2f", cell, w.Influence/c.Influence, recorded)
			}
		}
	}
}
