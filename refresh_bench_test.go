package scorpion

import (
	"context"
	"math/rand"
	"testing"

	"github.com/scorpiondb/scorpion/internal/synth"
)

// BenchmarkSessionRefresh measures one warm refresh through the library on
// the live-append workload's shape: 30 groups × 2,000 rows, MC over SUM
// with every other group held out, and 50-row batches dealt at random over
// the groups. One op is Session.Explain on the next batch's snapshot: the
// tracker advance, the seeded scorer, the pool's tail re-score and the
// presentation. The snapshots are appended before the timer runs; a new
// base table and cold run start every 100 batches, outside the timer, so
// the table never grows past the session's warm cap.
func BenchmarkSessionRefresh(b *testing.B) {
	const groups, perGroup, batchRows, batches = 30, 2000, 50, 100
	reserve := (batches*batchRows + groups - 1) / groups
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: perGroup + reserve, Groups: groups, OutlierGroups: 2, Mu: 80, Seed: 1,
	})
	gcol, _ := ds.Table.Schema().Index("g")
	seen := map[string]int{}
	var baseRows, spare []Row
	for r := 0; r < ds.Table.NumRows(); r++ {
		row := ds.Table.Row(r)
		key := ds.Table.Value(gcol, r).String()
		if seen[key]++; seen[key] <= perGroup {
			baseRows = append(baseRows, row)
		} else {
			spare = append(spare, row)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(spare), func(i, j int) { spare[i], spare[j] = spare[j], spare[i] })
	req := &Request{
		SQL: "SELECT sum(v), g FROM synth GROUP BY g", Outliers: ds.OutlierKeys,
		AllOthersHoldOut: true, Attributes: ds.DimNames(), Algorithm: MC,
	}
	ctx := context.Background()
	var sess *Session
	var snaps []*Table
	// start builds a fresh base table, runs the session's cold run on it and
	// appends every batch.
	start := func() {
		bld := NewBuilder(ds.Table.Schema())
		for _, row := range baseRows {
			bld.MustAppend(row)
		}
		r := *req
		r.Table = bld.Build()
		sess = NewSession(&r)
		if _, err := sess.Explain(ctx, &r, 1); err != nil {
			b.Fatal(err)
		}
		app := AppenderFor(r.Table)
		snaps = snaps[:0]
		for lo := 0; lo+batchRows <= batches*batchRows; lo += batchRows {
			succ, err := app.Append(spare[lo : lo+batchRows])
			if err != nil {
				b.Fatal(err)
			}
			snaps = append(snaps, succ)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % batches
		if k == 0 {
			b.StopTimer()
			start()
			b.StartTimer()
		}
		r := *req
		r.Table = snaps[k]
		res, err := sess.Explain(ctx, &r, int64(k+2))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stats.Refreshed {
			b.Fatalf("batch %d did not refresh warm: %s", k, sess.FallbackReason())
		}
	}
}
