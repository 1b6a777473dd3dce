package scorpion

// Memory lane: the bytes/row cost of provenance and the scorer memo on a
// group-contiguous million-row workload — the numbers recorded in
// BENCH_memory.json next to the ns/op lanes. The workload is the shape the
// adaptive RowSet encodings target (and the shape real GROUP BY time
// tables have): rows clustered by group key, so each group's provenance is
// a handful of runs. The bench measures the same sets twice — as the
// adaptive encodings build them, and rebuilt through NewDenseRowSet, the
// fixed-bitmap baseline every set cost before the encoding family existed.

import (
	"runtime"
	"testing"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// heapAlloc forces a GC and reads live heap bytes.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkProvenanceMemory measures group provenance and memo-cache
// memory on a 1000-groups × 1000-tuples/group synthetic table:
//
//	adaptive-bytes/row   per-row provenance cost as query.Run built it
//	dense-bytes/row      the same sets forced into the dense bitmap
//	reduction            dense / adaptive (acceptance floor: ≥ 4×)
//	heap-delta-bytes     live-heap growth attributable to the group sets
//	memo-entries/bytes   scorer memo size after a predicate grid
//
// Run with -benchtime 1x: the metrics are properties of the workload, not
// of iteration count.
func BenchmarkProvenanceMemory(b *testing.B) {
	ds := synth.Generate(synth.Config{
		Dims: 1, TuplesPerGroup: 1000, Groups: 1000, OutlierGroups: 4, Mu: 80, Seed: 37,
	})
	n := ds.Table.NumRows()
	q, err := query.FromSQL(ds.Table, "SELECT sum(v), g FROM synth GROUP BY g")
	if err != nil {
		b.Fatal(err)
	}

	var (
		adaptiveBytes, denseBytes int
		heapDelta                 uint64
		memoEntries               int
		memoBytes                 int64
		groups                    int
	)
	for i := 0; i < b.N; i++ {
		before := heapAlloc()
		res, err := q.Run()
		if err != nil {
			b.Fatal(err)
		}
		heapDelta = heapAlloc() - before

		adaptiveBytes, denseBytes, groups = 0, 0, len(res.Rows)
		for _, row := range res.Rows {
			adaptiveBytes += row.Group.MemBytes()
			// The baseline: the identical membership as a fixed bitmap.
			d := relation.NewDenseRowSet(n)
			row.Group.ForEach(func(r int) { d.Add(r) })
			if d.Count() != row.Group.Count() {
				b.Fatal("baseline rebuild diverged")
			}
			denseBytes += d.MemBytes()
		}

		// Memo cost: score a grid of candidate boxes through a scorer that
		// keeps the selection memo, over the flagged groups (4 outliers, 3
		// hold-outs keeps the bench about memory, not scan time).
		task := &influence.Task{
			Table:  ds.Table,
			Agg:    q.Agg,
			AggCol: q.AggCol,
			Lambda: 0.5,
			C:      0.5,
		}
		for _, key := range ds.OutlierKeys {
			row, ok := res.Lookup(key)
			if !ok {
				b.Fatalf("missing outlier group %q", key)
			}
			task.Outliers = append(task.Outliers, influence.Group{
				Key: key, Rows: row.Group, Direction: influence.TooHigh,
			})
		}
		for _, key := range ds.HoldOutKeys[:3] {
			row, ok := res.Lookup(key)
			if !ok {
				b.Fatalf("missing hold-out group %q", key)
			}
			task.HoldOuts = append(task.HoldOuts, influence.Group{Key: key, Rows: row.Group})
		}
		scorer, err := influence.NewScorer(task)
		if err != nil {
			b.Fatal(err)
		}
		space, err := predicate.NewSpace(ds.Table, []string{synth.DimName(0)}, nil)
		if err != nil {
			b.Fatal(err)
		}
		scorer.MemoizeSelections(space)
		lat := scorer.NewLattice(space)
		col := ds.Table.Schema().MustIndex(synth.DimName(0))
		for g := 0; g < 25; g++ {
			lo := float64(g * 4)
			p := predicate.MustNew(predicate.NewRangeClause(col, synth.DimName(0), lo, lo+8, false))
			box, ok := space.Box(p)
			lat.Parts(box, ok, p)
		}
		memoEntries, memoBytes = scorer.MemoSize()
	}

	perRowAdaptive := float64(adaptiveBytes) / float64(n)
	perRowDense := float64(denseBytes) / float64(n)
	b.ReportMetric(perRowAdaptive, "adaptive-bytes/row")
	b.ReportMetric(perRowDense, "dense-bytes/row")
	b.ReportMetric(perRowDense/perRowAdaptive, "reduction")
	b.ReportMetric(float64(heapDelta), "heap-delta-bytes")
	b.ReportMetric(float64(groups), "groups")
	b.ReportMetric(float64(memoEntries), "memo-entries")
	b.ReportMetric(float64(memoBytes), "memo-bytes")
	if perRowDense < 4*perRowAdaptive {
		b.Fatalf("provenance reduction %.1f× below the 4× acceptance floor (adaptive %.3f B/row, dense %.3f B/row)",
			perRowDense/perRowAdaptive, perRowAdaptive, perRowDense)
	}
}
