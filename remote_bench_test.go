package scorpion_test

import (
	"runtime"
	"testing"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/dispatch"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// BenchmarkExplainRemote measures the coordinator-side cost of answering
// shards on a worker fleet instead of in-process, on the BenchmarkExplainSharded
// workload: two httptest workers in the same process (so the wire cost is
// serialization + loopback HTTP, with no real network in the way), four
// shards, equal worker budget. Reported extras: dispatch overhead and
// bytes on the wire per shard, from the pool's own accounting. Each lane
// asserts the acceptance criterion first — remote-sharded top predicate
// identical to the local-sharded (and unsharded) one.
func BenchmarkExplainRemote(b *testing.B) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 2000, Groups: 60, OutlierGroups: 4, Mu: 80, Seed: 21,
	})
	request := func(shards int) *scorpion.Request {
		return &scorpion.Request{
			Table:            ds.Table,
			SQL:              "SELECT sum(v), g FROM synth GROUP BY g",
			Outliers:         ds.OutlierKeys,
			AllOthersHoldOut: true,
			Direction:        scorpion.TooHigh,
			Attributes:       ds.DimNames(),
			Algorithm:        scorpion.Naive,
			Bins:             10,
			Workers:          1,
			Shards:           shards,
		}
	}
	baseline, err := scorpion.Explain(request(1))
	if err != nil {
		b.Fatal(err)
	}
	localSharded, err := scorpion.Explain(request(4))
	if err != nil {
		b.Fatal(err)
	}
	if !localSharded.Explanations[0].Predicate.Equal(baseline.Explanations[0].Predicate) {
		b.Fatal("local-sharded top predicate diverged from unsharded")
	}

	tables := map[string]*scorpion.Table{"synth": ds.Table}
	w1 := newTestWorker(b, tables)
	defer w1.Close()
	w2 := newTestWorker(b, tables)
	defer w2.Close()

	b.Run("shards=4/local", func(b *testing.B) {
		var res *scorpion.Result
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = scorpion.Explain(request(4)); err != nil {
				b.Fatal(err)
			}
		}
		if !res.Explanations[0].Predicate.Equal(baseline.Explanations[0].Predicate) {
			b.Fatal("local-sharded top predicate diverged")
		}
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	})

	b.Run("shards=4/remote", func(b *testing.B) {
		pool, err := dispatch.NewPool(dispatch.Options{Peers: []string{w1.URL, w2.URL}})
		if err != nil {
			b.Fatal(err)
		}
		var res *scorpion.Result
		for i := 0; i < b.N; i++ {
			req := request(4)
			req.ShardDispatch = pool.For("synth", 1)
			var err error
			if res, err = scorpion.Explain(req); err != nil {
				b.Fatal(err)
			}
		}
		if !res.Explanations[0].Predicate.Equal(localSharded.Explanations[0].Predicate) {
			b.Fatal("remote-sharded top predicate diverged from local-sharded")
		}
		st := pool.Stats()
		if st.Succeeded == 0 || st.Fallbacks != 0 {
			b.Fatalf("fleet did not answer the shards: %+v", st)
		}
		b.ReportMetric(float64(st.BytesOut)/float64(st.Succeeded), "task-B/shard")
		b.ReportMetric(float64(st.BytesIn)/float64(st.Succeeded), "result-B/shard")
		b.ReportMetric(float64(st.DispatchNanos)/float64(st.Succeeded), "dispatch-ns/shard")
		b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	})
}
