// Package shard fans ONE explanation search across horizontal slices of a
// table and merges the results — the paper's partition-then-merge shape
// (§7.3) applied to the data axis instead of the predicate axis.
//
// Three pieces cooperate:
//
//   - a planner (Plan) that cuts the table into contiguous zero-copy
//     relation.Views, group-aware: cut points follow the quantiles of the
//     flagged outlier provenance, so every shard's local search has outlier
//     tuples to work with and shards carry near-equal shares of the rows
//     the scorer actually scans;
//   - a coordinator (Coordinator, a partition.Searcher) that runs the
//     chosen partitioner per shard — each shard gets a scorer and predicate
//     space over ITS view only — on a split of one worker budget, under one
//     cancellation context, publishing per-shard best-so-far into tagged
//     children of one partition.Board;
//   - a combiner that maps shard-local candidates back to global row ids,
//     dedupes them by predicate clause set (views share the base table's
//     dictionaries, so predicates transfer verbatim), re-scores the
//     survivors exactly on the full table, and feeds internal/merge so
//     adjacent boxes found by different shards coalesce.
//
// Shard-local scores are estimates (a shard sees only its slice of every
// group, and hold-out groups wholly outside the window are invisible to
// it); the exact full-table re-score in the combiner is what the returned
// ranking rests on. This mirrors the paper's MERGER design — generate
// candidates on partitions, re-score and combine them globally — and the
// decomposable-aggregate-state reasoning of the lineage literature: per-
// shard aggregate states are built over subsets without ever rescanning
// the whole input.
package shard

import (
	"fmt"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// Plan slices t into at most k contiguous zero-copy views, group-aware
// with respect to anchor — the union of the outlier groups' provenance:
//
//   - regions before the first and after the last anchor row are split off
//     into their own slices (at most two, budgeted out of k): they contain
//     no outlier provenance, so their local searches are skipped for free
//     while the final exact re-score still accounts for their rows;
//   - the anchored region in between is cut at anchor quantiles, so every
//     searched slice carries a near-equal share of the rows the shard
//     searches actually scan.
//
// For time-ordered tables whose flagged groups are contiguous runs — the
// common GROUP BY hour/day shape — this is what makes sharding pay: each
// shard's scorer sees only the flagged groups inside its window instead of
// every group's bitmap.
//
// With a nil or empty anchor the plan falls back to even row slicing. The
// returned views are disjoint, covering, and in row order; fewer than k
// come back when the anchor is too small to fill the budget.
func Plan(t *relation.Table, anchor *relation.RowSet, k int) []*relation.View {
	n := t.NumRows()
	if k < 1 {
		k = 1
	}
	if n > 0 && k > n {
		k = n
	}
	if k == 1 || n == 0 {
		return []*relation.View{t.Window(0, n)}
	}
	m := 0
	if anchor != nil {
		m = anchor.Count()
	}
	if m == 0 {
		return t.Shards(k)
	}

	// The anchored region [first, last+1) and the slice budget around it.
	// Min/Max are O(1) on the compact provenance encodings — no full scan.
	first, last := anchor.Min(), anchor.Max()
	var bounds []int
	quant := k
	if first > 0 {
		quant--
	}
	if last+1 < n {
		quant--
	}
	if quant < 1 {
		// k is too small to afford both remainder slices; keep the tail
		// one (typically the big unflagged region) and fold the head in.
		quant = 1
		if first > 0 && last+1 < n && k < 3 {
			first = 0
		}
	}
	if first > 0 {
		bounds = append(bounds, first)
	}
	if quant > m {
		quant = m
	}
	// Cut before the anchor member of rank i·m/quant, i = 1..quant-1:
	// searched slice i then holds anchor ranks [i·m/quant, (i+1)·m/quant).
	// Ranks are strictly increasing row ids, so the bounds are strictly
	// increasing — every searched slice gets at least one anchor row.
	next := m / quant
	i := 1
	rank := 0
	anchor.ForEach(func(r int) {
		if i < quant && rank == next {
			bounds = append(bounds, r)
			i++
			next = i * m / quant
		}
		rank++
	})
	if last+1 < n {
		bounds = append(bounds, last+1)
	}
	return t.ShardsAt(bounds)
}

// localTask projects a full-table influence task onto one view: group
// provenance RowSets are sliced to the window and shifted to local ids,
// and groups with no rows inside the window are dropped — a shard only
// scores what it can see. A shard whose window contains no outlier rows
// returns ok = false: it cannot generate candidates and should be skipped.
func localTask(full *influence.Task, v *relation.View) (*influence.Task, bool) {
	local := &influence.Task{
		Table:  v,
		Agg:    full.Agg,
		AggCol: full.AggCol,
		Lambda: full.Lambda,
		C:      full.C,
	}
	for _, g := range full.Outliers {
		rows := v.LocalRows(g.Rows)
		if rows.IsEmpty() {
			continue
		}
		local.Outliers = append(local.Outliers, influence.Group{Key: g.Key, Rows: rows, Direction: g.Direction})
	}
	if len(local.Outliers) == 0 {
		return nil, false
	}
	for _, g := range full.HoldOuts {
		rows := v.LocalRows(g.Rows)
		if rows.IsEmpty() {
			continue
		}
		local.HoldOuts = append(local.HoldOuts, influence.Group{Key: g.Key, Rows: rows})
	}
	return local, true
}

// OutlierUnion forwards to task.OutlierUnion for the benchmark ladder, its
// one remaining caller.
func OutlierUnion(task *influence.Task) *relation.RowSet { return task.OutlierUnion() }

// ShardTag names shard i in board children and progress snapshots.
func ShardTag(i int) string { return fmt.Sprintf("shard-%d", i) }
