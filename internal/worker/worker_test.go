package worker

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/partition/mc"
	"github.com/scorpiondb/scorpion/internal/partition/naive"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/synth"
	"github.com/scorpiondb/scorpion/internal/wire"
)

// shardFixture is one shard of a synthetic table as the coordinator would
// describe it: a window that cuts into the first and last groups, every
// group's provenance sliced to it, and the task on the wire.
type shardFixture struct {
	ds    *synth.Dataset
	local *influence.Task // the same shard, bound in process
	task  *wire.Task
}

func newShardFixture(t *testing.T, agg, algorithm string, dims, bins int) shardFixture {
	t.Helper()
	ds := synth.Generate(synth.Config{Dims: dims, TuplesPerGroup: 60, Groups: 5, OutlierGroups: 2, Mu: 80, Seed: 4})
	whole, _, err := eval.SynthTask(ds, agg, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 25, ds.Table.NumRows()-25
	view := ds.Table.Window(lo, hi)
	slice := func(groups []influence.Group) []influence.Group {
		out := make([]influence.Group, len(groups))
		for i, g := range groups {
			out[i] = influence.Group{Key: g.Key, Rows: g.Rows.Slice(lo, hi), Direction: g.Direction}
		}
		return out
	}
	local := &influence.Task{
		Table: view, Agg: whole.Agg, AggCol: whole.AggCol,
		Outliers: slice(whole.Outliers), HoldOuts: slice(whole.HoldOuts),
		Lambda: whole.Lambda, C: whole.C,
	}
	return shardFixture{ds: ds, local: local, task: &wire.Task{
		Version: wire.Version, Table: "synth", Rows: ds.Table.NumRows(),
		SQL:      "SELECT " + agg + "(v), g FROM synth GROUP BY g",
		WindowLo: lo, WindowHi: hi,
		Algorithm: algorithm, Bins: bins, TopK: 8,
		Attrs:  ds.DimNames(),
		Lambda: local.Lambda, C: local.C,
		Outliers: wire.EncodeGroups(local.Outliers), HoldOuts: wire.EncodeGroups(local.HoldOuts),
	}}
}

// TestRunMatchesInProcessSearch: a worker given a wire.Task returns exactly
// what the same shard search returns in process.
func TestRunMatchesInProcessSearch(t *testing.T) {
	for _, algorithm := range []string{"naive", "mc"} {
		f := newShardFixture(t, "sum", algorithm, 2, 6)
		scorer, err := influence.NewScorer(f.local)
		if err != nil {
			t.Fatal(err)
		}
		space, err := predicate.NewSpace(f.local.Table, f.task.Attrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var searcher partition.Searcher
		if algorithm == "naive" {
			searcher = naive.NewSearcher(scorer, space, naive.Params{Bins: f.task.Bins, TopK: f.task.TopK})
		} else {
			searcher = mc.NewSearcher(scorer, space, mc.Params{Bins: f.task.Bins})
		}
		outcome, err := partition.RunSearch(context.Background(), 1, searcher)
		if err != nil {
			t.Fatal(err)
		}
		want := wire.EncodeOutcome(outcome)
		if len(want.Candidates) == 0 {
			t.Fatalf("%s: the in-process search found nothing", algorithm)
		}
		for _, workers := range []int{1, 3} {
			f.task.Workers = workers
			got, err := Run(context.Background(), f.ds.Table, f.task, 2)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", algorithm, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/workers=%d: worker result differs from the in-process search\n got %+v\nwant %+v", algorithm, workers, got, want)
			}
		}
	}
}

// TestRunRefusesDriftedTable: a task pinned to another row count is an
// ErrTableMismatch, not an answer from the wrong data.
func TestRunRefusesDriftedTable(t *testing.T) {
	f := newShardFixture(t, "sum", "naive", 2, 6)
	f.task.Rows++
	res, err := Run(context.Background(), f.ds.Table, f.task, 1)
	var mismatch *ErrTableMismatch
	if !errors.As(err, &mismatch) {
		t.Fatalf("err = %v, want ErrTableMismatch", err)
	}
	if res != nil {
		t.Errorf("a refused task returned a result: %+v", res)
	}
	if mismatch.Table != "synth" || mismatch.Want != f.task.Rows || mismatch.Have != f.ds.Table.NumRows() {
		t.Errorf("mismatch = %+v", mismatch)
	}
}

// TestRunCancelled: a cancelled context ends the search promptly with the
// context's error and no result — a partial candidate stream must never be
// serialised as if it were the shard's answer.
func TestRunCancelled(t *testing.T) {
	// MEDIAN over a 40-bin grid of three attributes: hours of black-box
	// scoring if nothing stopped it.
	f := newShardFixture(t, "median", "naive", 3, 40)
	for _, delay := range []time.Duration{0, 20 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		if delay == 0 {
			cancel()
		} else {
			time.AfterFunc(delay, cancel)
		}
		start := time.Now()
		res, err := Run(ctx, f.ds.Table, f.task, 2)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel after %v: err = %v, want context.Canceled", delay, err)
		}
		if res != nil {
			t.Errorf("cancel after %v: an interrupted search returned a result (interrupted=%v, %d candidates)", delay, res.Interrupted, len(res.Candidates))
		}
		if took := time.Since(start); took > 5*time.Second {
			t.Errorf("cancel after %v: Run returned after %v", delay, took)
		}
	}
}
