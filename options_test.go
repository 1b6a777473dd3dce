package scorpion

import (
	"reflect"
	"slices"
	"testing"

	"github.com/scorpiondb/scorpion/internal/merge"
	"github.com/scorpiondb/scorpion/internal/partition/dt"
	"github.com/scorpiondb/scorpion/internal/partition/mc"
	"github.com/scorpiondb/scorpion/internal/partition/naive"
	"github.com/scorpiondb/scorpion/internal/shard"
)

// optionSurface pins every exported option field of Request and of the
// search Params structs. Next to each name: the non-test caller that sets
// it, or — for a public knob no caller in this module sets — the test that
// would notice its removal. A knob added to one of these structs fails
// TestOptionSurface until it is listed here with its caller.
var optionSurface = map[string][]string{
	"scorpion.Request": {
		"Table",            // cmd/scorpion, internal/server, internal/experiments
		"SQL",              // cmd/scorpion, internal/server, internal/experiments
		"Outliers",         // cmd/scorpion, internal/server, internal/experiments
		"HoldOuts",         // cmd/scorpion, internal/server, internal/experiments
		"AllOthersHoldOut", // cmd/scorpion, internal/server, examples
		"Direction",        // cmd/scorpion, internal/server, internal/experiments
		"Directions",       // library API only; TestExplainPerKeyDirections
		"Attributes",       // cmd/scorpion, internal/server, internal/experiments
		"Lambda",           // SetLambda: cmd/scorpion, internal/server, internal/experiments
		"C",                // SetC: cmd/scorpion, internal/server, examples/knob, benchmark
		"Algorithm",        // cmd/scorpion, internal/server, internal/experiments
		"Workers",          // cmd/scorpion, internal/server
		"Shards",           // cmd/scorpion, internal/server, internal/experiments
		"ShardDispatch",    // internal/server (the shard worker fleet)
		"TopK",             // cmd/scorpion, internal/server, examples
		"Bins",             // internal/experiments
		"OnProgress",       // internal/server (async job polls)
		"ProgressInterval", // internal/server (async job polls)
	},
	"naive.Params": {
		"Bins",              // explain.go (Plan's grid), internal/worker, internal/experiments (Figure 11)
		"MaxClauses",        // tests only: TestNaiveMaxClauses, TestNaiveClauseSelectionEquivalence
		"MaxDiscreteSubset", // tests only: TestNaiveClauseSelectionEquivalence
		"TopK",              // explain.go (the Plan's top-k, shard depth), internal/worker
		"Domains",           // explain.go (sharded grids), internal/worker
		"Estimator",         // benchmark/ladder.go
	},
	"dt.Params": {
		"DisableSampling", // tests only: TestLeafCardinalitiesAreExact, TestPartitioningReusableAcrossC
		"SampleSeed",      // tests only: TestParallelPartitioningIdenticalToSerial, TestDTWithSamplingStillWorks
	},
	"mc.Params": {
		"Bins",     // explain.go (Plan's grid), internal/worker
		"MaxUnits", // tests only: TestMCPruningKeepsOptimalReachable
		"Domains",  // explain.go (sharded grids), internal/worker, benchmark/ladder.go
	},
	"merge.Params": {
		"TopQuartileOnly",  // explain.go (DT), benchmark/ladder.go
		"UseApproximation", // no-op; benchmark/ladder.go sets it; delete with B
		"MaxRounds",        // internal/shard (its combine merge)
	},
	"shard.Params": {
		"GridBins", // explain.go, benchmark/ladder.go
		"Remote",   // explain.go (Request.ShardDispatch)
	},
}

// TestOptionSurface pins the option surface: the exported fields of
// Request and the naive, dt, mc, merge and shard Params, 34 in all.
func TestOptionSurface(t *testing.T) {
	structs := map[string]reflect.Type{
		"scorpion.Request": reflect.TypeFor[Request](),
		"naive.Params":     reflect.TypeFor[naive.Params](),
		"dt.Params":        reflect.TypeFor[dt.Params](),
		"mc.Params":        reflect.TypeFor[mc.Params](),
		"merge.Params":     reflect.TypeFor[merge.Params](),
		"shard.Params":     reflect.TypeFor[shard.Params](),
	}
	total := 0
	for name, typ := range structs {
		var got []string
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if want := optionSurface[name]; !slices.Equal(got, want) {
			t.Errorf("%s exports %v, the pinned surface is %v", name, got, want)
		}
		total += len(got)
	}
	if len(optionSurface) != len(structs) {
		t.Errorf("optionSurface lists %d structs, the test reflects over %d", len(optionSurface), len(structs))
	}
	if total != 34 {
		t.Errorf("option surface has %d fields, want 34", total)
	}
}
