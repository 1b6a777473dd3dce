package scorpion

import (
	"context"
	"fmt"
	"testing"

	"github.com/scorpiondb/scorpion/internal/synth"
)

// TestMatchedCountsMatchRows: MatchedOutlierTuples, which the exact
// re-score sums from the outlier groups' selections, equals |p(g_O)| as
// MatchedRows evaluates it, for every explanation on every path that
// ranks: NAIVE on a black-box aggregate, DT one-shot and over a Session's
// c sweep with and without the selection memo, MC, a warm refresh and a
// sharded run.
func TestMatchedCountsMatchRows(t *testing.T) {
	check := func(t *testing.T, label string, res *Result) {
		t.Helper()
		if len(res.Explanations) == 0 {
			t.Fatalf("%s: no explanations", label)
		}
		for i, e := range res.Explanations {
			if n := res.MatchedRows(i).Count(); n != e.MatchedOutlierTuples {
				t.Errorf("%s: rank %d %q: MatchedOutlierTuples %d, MatchedRows %d", label, i, e.Where, e.MatchedOutlierTuples, n)
			}
		}
	}
	explain := func(t *testing.T, req *Request) *Result {
		t.Helper()
		res, err := Explain(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	t.Run("naive-median", func(t *testing.T) {
		req := synthRequest(t, "median", 150)
		req.Algorithm = Naive
		req.Bins = 6
		check(t, "naive", explain(t, req))
	})
	t.Run("dt", func(t *testing.T) {
		req := synthRequest(t, "avg", 300)
		req.Algorithm = DT
		check(t, "dt", explain(t, req))
	})
	t.Run("dt-session-sweep", func(t *testing.T) {
		req := synthRequest(t, "avg", 300)
		req.Algorithm = DT
		for _, memo := range []bool{true, false} {
			func() {
				defer func(old bool) { memoizeSelections = old }(memoizeSelections)
				memoizeSelections = memo
				sess := NewSession(req)
				for _, c := range []float64{1, 0.5, 0.2, 0.05, 0, 0.5} {
					r := *req
					r.SetC(c)
					res, err := sess.Explain(context.Background(), &r, 1)
					if err != nil {
						t.Fatal(err)
					}
					check(t, fmt.Sprintf("memo=%v c=%v", memo, c), res)
				}
			}()
		}
	})
	t.Run("mc", func(t *testing.T) {
		req := synthRequest(t, "sum", 300)
		req.Algorithm = MC
		check(t, "mc", explain(t, req))
	})
	t.Run("refresh", func(t *testing.T) {
		schema, rows := streamFixture(t)
		tbl := buildFrom(t, schema, rows)
		sess := NewSession(streamRequest(tbl))
		res, err := sess.Explain(context.Background(), streamRequest(tbl), 1)
		if err != nil {
			t.Fatal(err)
		}
		check(t, "cold", res)
		app := AppenderFor(tbl)
		for gen := int64(2); gen <= 4; gen++ {
			if tbl, err = app.Append(streamBatch(12, true)); err != nil {
				t.Fatal(err)
			}
			res, err := sess.Explain(context.Background(), streamRequest(tbl), gen)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.Refreshed {
				t.Fatalf("append %d: not refreshed warm (%s)", gen-1, sess.FallbackReason())
			}
			check(t, fmt.Sprintf("after %d appends", gen-1), res)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		ds := synth.Generate(synth.Config{
			Dims: 2, TuplesPerGroup: 300, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 11,
		})
		for _, tc := range []struct {
			algo Algorithm
			agg  string
		}{{Naive, "sum"}, {DT, "avg"}} {
			res := explain(t, shardedRequest(ds, tc.agg, tc.algo, 3))
			if res.Stats.Shards != 3 {
				t.Fatalf("%v: Stats.Shards = %d, want 3", tc.algo, res.Stats.Shards)
			}
			check(t, "sharded "+tc.algo.String(), res)
		}
	})
}
