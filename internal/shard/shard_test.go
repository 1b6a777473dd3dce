package shard

import (
	"context"
	"fmt"
	"testing"

	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/partition/naive"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// planTable builds an n-row single-column table for planner tests.
func planTable(t testing.TB, n int) *relation.Table {
	t.Helper()
	schema := relation.MustSchema(relation.Column{Name: "x", Kind: relation.Continuous})
	b := relation.NewBuilder(schema)
	for i := 0; i < n; i++ {
		b.MustAppend(relation.Row{relation.F(float64(i))})
	}
	return b.Build()
}

// TestPlanGroupAware: when the flagged rows cluster in one region, the cut
// points land inside that region — every shard gets a near-equal share of
// the anchor rows, and the unflagged tail pools into the last shard.
func TestPlanGroupAware(t *testing.T) {
	tbl := planTable(t, 1000)
	anchor := relation.NewRowSet(1000)
	for i := 0; i < 100; i++ { // outliers live in rows [0, 100)
		anchor.Add(i)
	}
	views := Plan(tbl, anchor, 4)
	if len(views) != 4 {
		t.Fatalf("got %d views", len(views))
	}
	// Disjoint + covering, in order.
	next := 0
	for i, v := range views {
		if v.Off() != next {
			t.Fatalf("view %d: off %d want %d", i, v.Off(), next)
		}
		next = v.Off() + v.Len()
	}
	if next != 1000 {
		t.Fatalf("views cover %d rows", next)
	}
	// Group-aware: the searched slices split the anchored region [0, 100)
	// into near-equal anchor shares, and the anchor-free tail is its own
	// slice (its local search is skipped; the exact re-score covers it).
	for i, want := range []int{33, 33, 34} {
		got := anchor.Slice(views[i].Off(), views[i].Off()+views[i].Len()).Count()
		if got != want {
			t.Errorf("shard %d: %d anchor rows, want %d", i, got, want)
		}
	}
	if tail := views[3]; tail.Off() != 100 || tail.Len() != 900 {
		t.Errorf("tail shard [%d,+%d), want the whole unflagged region [100,+900)", tail.Off(), tail.Len())
	}

	// An anchor cluster in the MIDDLE gets both a head and a tail slice.
	mid := relation.NewRowSet(1000)
	for i := 400; i < 500; i++ {
		mid.Add(i)
	}
	views = Plan(tbl, mid, 4)
	if len(views) != 4 {
		t.Fatalf("middle cluster: %d views", len(views))
	}
	if views[0].Off() != 0 || views[0].Len() != 400 {
		t.Errorf("head slice [%d,+%d)", views[0].Off(), views[0].Len())
	}
	if last := views[3]; last.Off() != 500 || last.Len() != 500 {
		t.Errorf("tail slice [%d,+%d)", last.Off(), last.Len())
	}
	for _, v := range views[1:3] {
		if got := mid.Slice(v.Off(), v.Off()+v.Len()).Count(); got != 50 {
			t.Errorf("middle searched slice [%d,+%d) holds %d anchors, want 50", v.Off(), v.Len(), got)
		}
	}
}

func TestPlanFallbacks(t *testing.T) {
	tbl := planTable(t, 64)
	// Nil/empty anchors fall back to even slicing.
	for _, anchor := range []*relation.RowSet{nil, relation.NewRowSet(64)} {
		views := Plan(tbl, anchor, 4)
		if len(views) != 4 {
			t.Fatalf("fallback views = %d", len(views))
		}
		for _, v := range views {
			if v.Len() != 16 {
				t.Fatalf("fallback shard len %d", v.Len())
			}
		}
	}
	// Fewer anchor rows than shards: searched slices clamp to the anchor
	// count (here 2), plus the anchor-free head and tail slices.
	anchor := relation.RowSetOf(64, 10, 40)
	views := Plan(tbl, anchor, 8)
	if len(views) != 4 {
		t.Fatalf("k clamped to anchor count: got %d views", len(views))
	}
	searched := 0
	for _, v := range views {
		if anchor.Slice(v.Off(), v.Off()+v.Len()).Count() > 0 {
			searched++
		}
	}
	if searched != 2 {
		t.Errorf("searched slices = %d, want 2 (one per anchor row)", searched)
	}
	// k <= 1 or empty table: one view.
	if got := len(Plan(tbl, anchor, 1)); got != 1 {
		t.Errorf("k=1: got %d views", got)
	}
	empty := planTable(t, 0)
	if got := len(Plan(empty, nil, 4)); got != 1 {
		t.Errorf("empty table: got %d views", got)
	}
}

func TestLocalTask(t *testing.T) {
	tbl := planTable(t, 100)
	full := &influence.Task{
		Table:  tbl,
		AggCol: 0,
		Lambda: 0.5,
		C:      0.2,
		Outliers: []influence.Group{
			{Key: "a", Rows: relation.RowSetOf(100, 5, 80), Direction: influence.TooHigh},
			{Key: "b", Rows: relation.RowSetOf(100, 90), Direction: influence.TooHigh},
		},
		HoldOuts: []influence.Group{
			{Key: "h0", Rows: relation.RowSetOf(100, 3, 40)},
			{Key: "h1", Rows: relation.RowSetOf(100, 95)},
		},
	}
	v := tbl.Window(0, 50)
	local, ok := localTask(full, v)
	if !ok {
		t.Fatal("window with outlier rows reported not ok")
	}
	if len(local.Outliers) != 1 || local.Outliers[0].Key != "a" {
		t.Fatalf("local outliers = %+v", local.Outliers)
	}
	if !local.Outliers[0].Rows.Contains(5) || local.Outliers[0].Rows.Count() != 1 {
		t.Fatalf("local outlier rows = %v", local.Outliers[0].Rows)
	}
	if len(local.HoldOuts) != 1 || local.HoldOuts[0].Key != "h0" {
		t.Fatalf("local holdouts = %+v", local.HoldOuts)
	}
	if local.Table.NumRows() != 50 {
		t.Fatalf("local universe = %d", local.Table.NumRows())
	}
	// A window without outlier rows is skipped.
	if _, ok := localTask(full, tbl.Window(6, 79)); ok {
		t.Fatal("outlier-free window reported ok")
	}
}

// coordSetup builds a full-table scorer/space over a synthetic dataset and
// a NAIVE factory.
func coordSetup(t testing.TB, cfg synth.Config, agg string) (*influence.Scorer, *predicate.Space, Factory) {
	t.Helper()
	ds := synth.Generate(cfg)
	task, space, err := eval.SynthTask(ds, agg, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(sc *influence.Scorer, sp *predicate.Space, domains map[int]predicate.Domain) (partition.Searcher, error) {
		return naive.NewSearcher(sc, sp, naive.Params{Bins: 6, TopK: DefaultTopPerShard, Domains: domains}), nil
	}
	return scorer, space, factory
}

// TestCoordinatorMatchesUnsharded: the sharded NAIVE search returns the
// same top predicate as the unsharded one, with an exact (full-table)
// score, for several shard counts and worker budgets.
func TestCoordinatorMatchesUnsharded(t *testing.T) {
	cfg := synth.Config{Dims: 2, TuplesPerGroup: 300, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 7}
	scorer, space, factory := coordSetup(t, cfg, "sum")

	unsharded, err := factory(scorer, space, nil)
	if err != nil {
		t.Fatal(err)
	}
	base, err := partition.RunSearch(context.Background(), 1, unsharded)
	if err != nil {
		t.Fatal(err)
	}
	baseTop, ok := partition.Top(base.Candidates)
	if !ok {
		t.Fatal("unsharded search found nothing")
	}
	baseScore := scorer.Influence(baseTop.Pred)

	for _, tc := range []struct{ shards, workers int }{{2, 1}, {4, 2}, {4, 8}} {
		t.Run(fmt.Sprintf("shards=%d/workers=%d", tc.shards, tc.workers), func(t *testing.T) {
			coord := NewCoordinator(scorer, space, factory, tc.shards, Params{GridBins: 6})
			if coord.NumShards() != tc.shards {
				t.Fatalf("planned %d shards", coord.NumShards())
			}
			out, err := partition.RunSearch(context.Background(), tc.workers, coord)
			if err != nil {
				t.Fatal(err)
			}
			top, ok := partition.Top(out.Candidates)
			if !ok {
				t.Fatal("sharded search found nothing")
			}
			// Shards enumerate the global clause grid, so the unsharded top
			// is rediscoverable verbatim: same predicate, same exact score.
			if top.Pred.Key() != baseTop.Pred.Key() {
				t.Errorf("sharded top %q != unsharded top %q", top.Pred, baseTop.Pred)
			}
			if top.Score < baseScore-1e-9 {
				t.Errorf("sharded top scores %.6f < unsharded %.6f", top.Score, baseScore)
			}
			// And its stored score is the exact one.
			if exact := scorer.Influence(top.Pred); top.Score != exact {
				t.Errorf("top score %.6f != exact %.6f", top.Score, exact)
			}
			if coord.Calls() == 0 {
				t.Error("shard-local scorer calls not observable")
			}
		})
	}
}

// TestCoordinatorPerShardBoards: every searched shard publishes tagged
// best-so-far into children of one board.
func TestCoordinatorPerShardBoards(t *testing.T) {
	cfg := synth.Config{Dims: 2, TuplesPerGroup: 200, Groups: 4, OutlierGroups: 2, Mu: 80, Seed: 3}
	scorer, space, factory := coordSetup(t, cfg, "sum")
	coord := NewCoordinator(scorer, space, factory, 3, Params{})

	board := partition.NewBoard()
	out, err := partition.RunSearchObserved(context.Background(), 2, board, coord)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	kids := board.Children()
	if len(kids) == 0 {
		t.Fatal("no per-shard boards")
	}
	published := 0
	for _, k := range kids {
		if len(k.Cands) > 0 {
			published++
		}
	}
	if published == 0 {
		t.Fatalf("no shard published best-so-far: %+v", kids)
	}
	if global, _ := board.Snapshot(); len(global) == 0 {
		t.Fatal("global board empty")
	}
}

// TestCoordinatorCancellation: one cancelled context stops every shard
// search and the outcome is flagged interrupted.
func TestCoordinatorCancellation(t *testing.T) {
	cfg := synth.Config{Dims: 3, TuplesPerGroup: 400, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 5}
	scorer, space, factory := coordSetup(t, cfg, "sum")
	coord := NewCoordinator(scorer, space, factory, 4, Params{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every shard must observe it promptly
	out, err := partition.RunSearch(ctx, 4, coord)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Interrupted {
		t.Fatal("cancelled sharded search not marked interrupted")
	}
}
