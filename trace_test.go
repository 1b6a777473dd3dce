package scorpion

// Phase-trace structure suite: an explain run under a caller-provided root
// span must produce the documented phase tree, with each phase parented
// where the README says it is — plan and search under the root, per-shard
// spans (carrying the algorithm's own attrs) under search, refine under
// combine, rank last. The companion registry assertions pin that the
// same run also lands in the metrics spine.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// sumRequest builds a SUM request over a synthetic dataset, every other
// group held out; callers mutate the returned request per case.
func sumRequest(ds *synth.Dataset, algo Algorithm) *Request {
	return &Request{
		Table:            ds.Table,
		SQL:              "SELECT sum(v), g FROM synth GROUP BY g",
		Outliers:         ds.OutlierKeys,
		AllOthersHoldOut: true,
		Direction:        TooHigh,
		Attributes:       ds.DimNames(),
		Algorithm:        algo,
		Shards:           1,
	}
}

// TestExplainSpanTree runs a sharded NAIVE explain under a root span and
// asserts the full phase tree.
func TestExplainSpanTree(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 150, Groups: 6, OutlierGroups: 2, Mu: 80, Seed: 11,
	})
	req := sumRequest(ds, Naive)
	req.Shards = 2
	req.Workers = 2

	root := obs.NewSpan("explain")
	reg := obs.NewRegistry()
	ctx := obs.ContextWithSpan(context.Background(), root)
	ctx = obs.ContextWithRegistry(ctx, reg)
	if _, err := ExplainContext(ctx, req); err != nil {
		t.Fatal(err)
	}
	root.End()

	node := root.Snapshot()
	search := node.Find("search")
	if node.Find("plan") == nil || search == nil || node.Find("rank") == nil {
		var buf bytes.Buffer
		root.WriteTree(&buf)
		t.Fatalf("missing top-level phase span; trace:\n%s", buf.String())
	}
	// The per-shard and combine spans must hang off "search", not the root.
	shard := search.Find("shard.search")
	combine := search.Find("combine")
	if shard == nil || combine == nil {
		var buf bytes.Buffer
		root.WriteTree(&buf)
		t.Fatalf("search span missing shard.search/combine children; trace:\n%s", buf.String())
	}
	// NAIVE's frontier- and subtree-gate counters land on the span of the
	// search that ran them: THAT shard's, not search's.
	for _, attr := range []string{"gated", "holdouts_skipped", "subtrees_skipped"} {
		if shard.Attrs[attr] == nil {
			t.Errorf("shard.search attrs = %v, want %s", shard.Attrs, attr)
		}
		if search.Attrs[attr] != nil {
			t.Errorf("search span carries the shard's %s attr", attr)
		}
	}
	// Refine is a combine sub-phase. The combine reports the lattice its
	// scores folded, refine its climb.
	refine := combine.Find("refine")
	if refine == nil {
		var buf bytes.Buffer
		root.WriteTree(&buf)
		t.Fatalf("combine has no refine child; trace:\n%s", buf.String())
	}
	for _, attr := range []string{"lattice_masks", "lattice_misses", "mask_groups"} {
		if n, ok := combine.Attrs[attr].(int); !ok || n == 0 {
			t.Errorf("combine attrs = %v, want an int %s > 0", combine.Attrs, attr)
		}
	}
	for _, attr := range []string{"steps", "moves", "declined", "holdout_stops", "box_fallbacks"} {
		if _, ok := refine.Attrs[attr].(int); !ok {
			t.Errorf("refine attrs = %v, want an int %s", refine.Attrs, attr)
		}
	}
	// The combine's merge scores through the same lattice and reports its
	// own declines: refine's are its climb's moves alone.
	if d, s, m := refine.Attrs["declined"].(int), refine.Attrs["holdout_stops"].(int), refine.Attrs["moves"].(int); d+s > m {
		t.Errorf("refine declined %d moves and stopped %d in the hold-outs, of %d moves", d, s, m)
	}
	var merged bool
	for _, c := range search.Children {
		if c.Name != "merge" {
			continue
		}
		merged = true
		for _, attr := range []string{"declined", "holdout_stops"} {
			if _, ok := c.Attrs[attr].(int); !ok {
				t.Errorf("the combine's merge attrs = %v, want an int %s", c.Attrs, attr)
			}
		}
	}
	if !merged {
		t.Error("no merge span under search for the combine's merge")
	}
	if shard.Attrs["shard"] == nil || shard.Attrs["rows"] == nil {
		t.Errorf("shard.search attrs = %v, want shard and rows", shard.Attrs)
	}
	if got := search.Attrs["algorithm"]; got != "naive" {
		t.Errorf("search algorithm attr = %v, want naive", got)
	}

	// The same run must have landed in the registry.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`scorpion_search_total{algorithm="naive"} 1`,
		"scorpion_scorer_calls_total",
		"scorpion_search_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q; got:\n%s", want, text)
		}
	}

	// A DT request: the pieces' scoring is a candidates span under search,
	// the Merger one merge span beside it with its work — lattice included
	// — as attrs, and rank splits into rescore and present; the merge's
	// counters land in the registry.
	root = obs.NewSpan("explain")
	reg = obs.NewRegistry()
	ctx = obs.ContextWithRegistry(obs.ContextWithSpan(context.Background(), root), reg)
	if _, err := ExplainContext(ctx, sumRequest(ds, DT)); err != nil {
		t.Fatal(err)
	}
	root.End()
	node = root.Snapshot()
	merge := node.Find("search").Find("merge")
	rank := node.Find("rank")
	if merge == nil || node.Find("search").Find("candidates") == nil || rank == nil || rank.Find("rescore") == nil || rank.Find("present") == nil {
		var buf bytes.Buffer
		root.WriteTree(&buf)
		t.Fatalf("want candidates and merge spans under search and rescore and present under rank; trace:\n%s", buf.String())
	}
	for _, attr := range []string{"attempts", "repeats", "box_fallbacks", "rounds", "lattice_masks", "memo_misses", "declined", "holdout_stops"} {
		if _, ok := merge.Attrs[attr].(int); !ok {
			t.Errorf("merge attrs = %v, want an int %s", merge.Attrs, attr)
		}
	}
	if n, _ := merge.Attrs["attempts"].(int); n == 0 {
		t.Errorf("merge attempts = %v, want > 0", merge.Attrs["attempts"])
	}
	if got, want := reg.Counter("scorpion_merge_attempts_total", "algo", "dt").Value(), float64(merge.Attrs["attempts"].(int)); got != want {
		t.Errorf("scorpion_merge_attempts_total{algo=dt} = %v, the span's attempts %v", got, want)
	}
	if got, want := reg.Counter("scorpion_merge_box_fallbacks_total").Value(), float64(merge.Attrs["box_fallbacks"].(int)); got != want {
		t.Errorf("scorpion_merge_box_fallbacks_total = %v, the span's box_fallbacks %v", got, want)
	}
}

// TestExplainSpanTreeSession pins the session (c-sweep) path's trace shape:
// a plan span on the cold run only, a dt-session search span that flips its
// reused_partition attr on the second run, and a rank span.
func TestExplainSpanTreeSession(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 100, Groups: 6, OutlierGroups: 2, Mu: 80, Seed: 3,
	})
	req := sumRequest(ds, DT)
	exp := NewSession(req)
	for i, want := range []bool{false, true} {
		root := obs.NewSpan("explain")
		ctx := obs.ContextWithSpan(context.Background(), root)
		r := *req
		r.SetC(0.5 - 0.2*float64(i))
		if _, err := exp.Explain(ctx, &r, 1); err != nil {
			t.Fatal(err)
		}
		root.End()
		node := root.Snapshot()
		search := node.Find("search")
		if search == nil || node.Find("rank") == nil {
			t.Fatalf("run %d: missing search/rank span", i)
		}
		if got := search.Attrs["algorithm"]; got != "dt-session" {
			t.Errorf("run %d: search algorithm = %v, want dt-session", i, got)
		}
		if plan := node.Find("plan"); (plan != nil) != (i == 0) {
			t.Errorf("run %d: plan span present = %v", i, plan != nil)
		}
		if got := search.Attrs["reused_partition"]; got != want {
			t.Errorf("run %d: reused_partition = %v, want %v", i, got, want)
		}
	}
}

// TestRefreshSpanAttrs: a warm refresh's trace says what the batch cost.
// The advance span carries the batch's tail rows, the groups it touched and
// those it opened; the rescore span the pool's candidates and the rows it
// tested, each appended row once per candidate when every group is
// labelled.
func TestRefreshSpanAttrs(t *testing.T) {
	base, batches, outliers, _, dims := tailFixture(t, 2)
	req := &Request{
		Table: base, SQL: "SELECT sum(v), g FROM synth GROUP BY g", Outliers: outliers,
		AllOthersHoldOut: true, Attributes: dims, Algorithm: MC,
	}
	sess := NewSession(req)
	if _, err := sess.Explain(context.Background(), req, 1); err != nil {
		t.Fatal(err)
	}
	succ, err := AppenderFor(base).Append(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	groups := map[string]bool{}
	for _, row := range batches[0] {
		groups[row[0].String()] = true
	}
	root := obs.NewSpan("explain")
	r := *req
	r.Table = succ
	res, err := sess.Explain(obs.ContextWithSpan(context.Background(), root), &r, 2)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	node := root.Snapshot()
	refresh := node.Find("refresh")
	if res.Stats.Candidates == 0 || !res.Stats.Refreshed || refresh == nil || refresh.Find("advance") == nil || refresh.Find("rescore") == nil {
		var buf bytes.Buffer
		root.WriteTree(&buf)
		t.Fatalf("refreshed %v; trace:\n%s", res.Stats.Refreshed, buf.String())
	}
	for span, want := range map[string]map[string]int{
		"advance": {"tail_rows": len(batches[0]), "touched": len(groups), "new_groups": 0},
		"rescore": {"candidates": res.Stats.Candidates, "rows_tested": res.Stats.Candidates * len(batches[0])},
	} {
		attrs := refresh.Find(span).Attrs
		for k, v := range want {
			if attrs[k] != v {
				t.Errorf("%s span: %s = %v, want %d (attrs %v)", span, k, attrs[k], v, attrs)
			}
		}
	}
}
