package scorpion_test

import (
	"context"
	"testing"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/dispatch"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// TestServedFieldsMatchFreshScorer: every explanation a served path
// returns carries what a scorer freshly built over the whole table gives
// its predicate — influence and penalty bits, matched count, and the
// hold-out flag as the penalty's sign (scorpion.CheckFresh) — for NAIVE,
// MC and DT unsharded and over three shards, NAIVE and MC with every shard
// answered by an in-process worker through a dispatch.Pool, a Session's
// warm refresh after an append, and NAIVE with no hold-outs.
func TestServedFieldsMatchFreshScorer(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 300, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 11,
	})
	type run func(t *testing.T) (*scorpion.Request, *scorpion.Result)
	explain := func(req *scorpion.Request) run {
		return func(t *testing.T) (*scorpion.Request, *scorpion.Result) {
			res, err := scorpion.Explain(req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Shards != req.Shards {
				t.Fatalf("Stats.Shards = %d, want %d", res.Stats.Shards, req.Shards)
			}
			return req, res
		}
	}
	local := func(algo scorpion.Algorithm, agg string, shards int) run {
		return explain(remoteRequest(ds, agg, algo, shards))
	}
	remote := func(algo scorpion.Algorithm) run {
		return func(t *testing.T) (*scorpion.Request, *scorpion.Result) {
			srv := newTestWorker(t, map[string]*scorpion.Table{"synth": ds.Table})
			defer srv.Close()
			pool, err := dispatch.NewPool(dispatch.Options{Peers: []string{srv.URL}})
			if err != nil {
				t.Fatal(err)
			}
			req := remoteRequest(ds, "sum", algo, 3)
			req.ShardDispatch = pool.For("synth", 1)
			req, res := explain(req)(t)
			if st := pool.Stats(); st.Succeeded == 0 || st.Fallbacks != 0 {
				t.Fatalf("the worker did not answer the shards: %+v", st)
			}
			return req, res
		}
	}
	refresh := func(t *testing.T) (*scorpion.Request, *scorpion.Result) {
		schema, rows := scorpion.StreamFixture(t)
		tbl := scorpion.BuildFrom(t, schema, rows)
		sess := scorpion.NewSession(scorpion.StreamRequest(tbl))
		if _, err := sess.Explain(context.Background(), scorpion.StreamRequest(tbl), 1); err != nil {
			t.Fatal(err)
		}
		tbl, err := scorpion.AppenderFor(tbl).Append(scorpion.StreamBatch(12, true))
		if err != nil {
			t.Fatal(err)
		}
		req := scorpion.StreamRequest(tbl)
		res, err := sess.Explain(context.Background(), req, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Refreshed {
			t.Fatalf("not refreshed warm (%s)", sess.FallbackReason())
		}
		return req, res
	}
	// With no hold-outs every penalty is 0, so the flag must read false:
	// the one cell that tells a flag of penalty > 0 from one of >= 0.
	noHoldOuts := func(t *testing.T) (*scorpion.Request, *scorpion.Result) {
		req := remoteRequest(ds, "sum", scorpion.Naive, 1)
		req.AllOthersHoldOut = false
		req, res := explain(req)(t)
		for _, e := range res.Explanations {
			if e.HoldOutPenalty != 0 {
				t.Fatalf("%q: hold-out penalty %v without hold-outs", e.Where, e.HoldOutPenalty)
			}
		}
		return req, res
	}
	for _, c := range []struct {
		name string
		run  run
	}{
		{"naive", local(scorpion.Naive, "sum", 1)},
		{"naive/shards=3", local(scorpion.Naive, "sum", 3)},
		{"naive/remote", remote(scorpion.Naive)},
		{"mc", local(scorpion.MC, "sum", 1)},
		{"mc/shards=3", local(scorpion.MC, "sum", 3)},
		{"mc/remote", remote(scorpion.MC)},
		{"dt", local(scorpion.DT, "avg", 1)},
		{"dt/shards=3", local(scorpion.DT, "avg", 3)},
		{"refresh", refresh},
		{"naive/no hold-outs", noHoldOuts},
	} {
		t.Run(c.name, func(t *testing.T) {
			req, res := c.run(t)
			if len(res.Explanations) == 0 {
				t.Fatal("no explanations")
			}
			scorpion.CheckFresh(t, req, res)
		})
	}
}
