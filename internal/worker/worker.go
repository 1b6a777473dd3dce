// Package worker executes one remote shard search: the server side of the
// coordinator/worker split. Run is a pure function from a wire.Task plus a
// locally-held table to a wire.Result — it reproduces exactly what the
// shard coordinator's local path does for the same window, so a remote
// fleet and a single process produce identical candidate streams.
package worker

import (
	"context"
	"fmt"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/partition/mc"
	"github.com/scorpiondb/scorpion/internal/partition/naive"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/wire"
)

// ErrTableMismatch marks a task whose pinned row count disagrees with the
// worker's copy of the table — the worker must refuse rather than answer
// from drifted data. Servers map it to 409.
type ErrTableMismatch struct {
	Table      string
	Want, Have int
}

func (e *ErrTableMismatch) Error() string {
	return fmt.Sprintf("worker: table %q has %d rows, task pinned %d", e.Table, e.Have, e.Want)
}

// Run executes one shard search task against tbl. The context cancels the
// search (the coordinator's per-shard timeout arrives here through the
// HTTP request context); maxWorkers caps the task's requested parallelism.
//
// The query SQL is parsed and bound only — never executed: group
// provenance arrives pre-sliced in the task, so the worker pays the
// search, not the aggregation.
func Run(ctx context.Context, tbl *relation.Table, t *wire.Task, maxWorkers int) (*wire.Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if tbl.NumRows() != t.Rows {
		return nil, &ErrTableMismatch{Table: t.Table, Want: t.Rows, Have: tbl.NumRows()}
	}
	if t.WindowHi > tbl.NumRows() {
		return nil, fmt.Errorf("worker: window [%d,%d) beyond table %q (%d rows)", t.WindowLo, t.WindowHi, t.Table, tbl.NumRows())
	}
	q, err := query.FromSQL(tbl, t.SQL)
	if err != nil {
		return nil, fmt.Errorf("worker: bind query: %w", err)
	}
	v := tbl.Window(t.WindowLo, t.WindowHi)
	winLen := t.WindowHi - t.WindowLo
	outliers, err := wire.DecodeGroups(t.Outliers, winLen)
	if err != nil {
		return nil, err
	}
	holdouts, err := wire.DecodeGroups(t.HoldOuts, winLen)
	if err != nil {
		return nil, err
	}
	task := &influence.Task{
		Table:    v,
		Agg:      q.Agg,
		AggCol:   q.AggCol,
		Outliers: outliers,
		HoldOuts: holdouts,
		Lambda:   t.Lambda,
		C:        t.C,
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	space, err := predicate.NewSpace(v, t.Attrs, nil)
	if err != nil {
		return nil, fmt.Errorf("worker: %w", err)
	}
	domains := wire.DecodeDomains(t.Domains)

	var searcher partition.Searcher
	switch t.Algorithm {
	case "naive":
		searcher = naive.NewSearcher(scorer, space, naive.Params{Bins: t.Bins, TopK: t.TopK, Domains: domains})
	case "mc":
		searcher = mc.NewSearcher(scorer, space, mc.Params{Bins: t.Bins, Domains: domains})
	default:
		return nil, fmt.Errorf("worker: unsupported algorithm %q", t.Algorithm)
	}

	workers := t.Workers
	if workers < 1 {
		workers = 1
	}
	if maxWorkers > 0 && workers > maxWorkers {
		workers = maxWorkers
	}
	outcome, err := partition.RunSearch(ctx, workers, searcher)
	if err != nil {
		return nil, err
	}
	if outcome.Interrupted {
		// A partial candidate stream would silently skew the combiner's
		// merge; the coordinator must retry or search this shard locally.
		cause := ctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		return nil, fmt.Errorf("worker: shard search interrupted: %w", cause)
	}
	return wire.EncodeOutcome(outcome), nil
}
