package scorpion

import (
	"context"
	"math"
	"testing"

	"github.com/scorpiondb/scorpion/internal/partition/naive"
)

// TestSessionColdMatchesOneShot: a Session's first run is a run of the
// same spine as ExplainContext, so it returns the same predicates in the
// same order with bit-equal scores, after the same number of scorer calls
// — on every algorithm, including DT, whose session run takes the DT path.
func TestSessionColdMatchesOneShot(t *testing.T) {
	cases := []struct {
		algo Algorithm
		agg  string
	}{
		{Naive, "sum"},
		{MC, "sum"},
		{DT, "avg"},
	}
	for _, tc := range cases {
		t.Run(tc.algo.String(), func(t *testing.T) {
			req := synthRequest(t, tc.agg, 150)
			req.Algorithm = tc.algo
			req.SetC(0.3)
			if tc.algo == Naive {
				req.NaiveParams = &naive.Params{Bins: 6}
			}
			one, err := ExplainContext(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(req).Explain(context.Background(), req, 1)
			if err != nil {
				t.Fatal(err)
			}
			if sess.Stats.ReusedPartition || sess.Stats.Refreshed {
				t.Fatalf("cold session run reused state: %+v", sess.Stats)
			}
			sameAsOneShot(t, sess, one)
		})
	}
}

// sameAsOneShot fails unless a session run returned exactly what the
// one-shot run did: predicates, order, bit-equal scores and scorer calls.
func sameAsOneShot(t *testing.T, sess, one *Result) {
	t.Helper()
	if sess.Stats.ScorerCalls != one.Stats.ScorerCalls {
		t.Errorf("scorer calls: session %d, one-shot %d", sess.Stats.ScorerCalls, one.Stats.ScorerCalls)
	}
	if len(sess.Explanations) == 0 || len(sess.Explanations) != len(one.Explanations) {
		t.Fatalf("explanations: session %d, one-shot %d", len(sess.Explanations), len(one.Explanations))
	}
	for i, s := range sess.Explanations {
		o := one.Explanations[i]
		if !s.Predicate.Equal(o.Predicate) || math.Float64bits(s.Influence) != math.Float64bits(o.Influence) {
			t.Errorf("rank %d: session %q %v, one-shot %q %v", i, s.Where, s.Influence, o.Where, o.Influence)
		}
	}
}

// TestSessionDTAfterAppendRunsCold: the first DT-path run on a successor
// snapshot plans afresh, so it must be a cold run — no merge seeds from the
// previous snapshot's pools, whose scores are stale — and answer exactly
// what ExplainContext answers on that snapshot.
func TestSessionDTAfterAppendRunsCold(t *testing.T) {
	schema, rows := streamFixture(t)
	base := buildFrom(t, schema, rows)
	req := streamRequest(base)
	req.SQL = "SELECT avg(v), g FROM t GROUP BY g"
	req.Algorithm = DT
	sess := NewSession(req)
	for _, c := range []float64{0.5, 0.2} {
		r := *req
		r.SetC(c)
		if _, err := sess.Explain(context.Background(), &r, 1); err != nil {
			t.Fatal(err)
		}
	}
	succ, err := AppenderFor(base).Append(streamBatch(40, true))
	if err != nil {
		t.Fatal(err)
	}
	r := *req
	r.Table = succ
	r.SetC(0.1)
	got, err := sess.Explain(context.Background(), &r, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.ReusedPartition || got.Stats.Refreshed {
		t.Fatalf("first run on the successor reused state: %+v", got.Stats)
	}
	one, err := ExplainContext(context.Background(), &r)
	if err != nil {
		t.Fatal(err)
	}
	sameAsOneShot(t, got, one)
}
