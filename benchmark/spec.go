package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchProcs is the GOMAXPROCS every run pins: the container the benchmark
// was sized on has two CPUs, and no workload has more clients than that.
const benchProcs = 2

// spec is BENCHMARK.json, the one place that names the workloads and the
// metrics with their units, directions and bounds. The runs print what it
// lists, in its order, and -compare judges by its bounds.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one metric of BENCHMARK.json; per-layer metrics have no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory of `go run ./benchmark` and of BENCHMARK.json's command,
// and the parent of the one `go test` runs in.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("run from the repository root: %w", firstErr)
}

func (s *spec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}
