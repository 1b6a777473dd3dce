// Command benchmark is the repository's serving benchmark: it starts
// internal/server in-process behind a loopback listener, drives it over
// HTTP with closed-loop clients, checks every answer against direct library
// calls and prints the metrics BENCHMARK.json names. See README.md.
//
//	go run ./benchmark                                   every workload, untraced then traced
//	go run ./benchmark -workload csweep-dt -trace 1      one run, as the driver makes it
//	go run ./benchmark -compare old.json new.json        verdict per workload and metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// meta records what a results file was measured on.
type meta struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
}

// workloadResult is one workload's part of a results file.
type workloadResult struct {
	EndToEnd      map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer      map[string]metricValue `json:"per_layer,omitempty"`
	Attempted     int                    `json:"attempted"`
	Failed        int                    `json:"failed"`
	FailedShare   float64                `json:"failed_share"`
	Failures      []failure              `json:"failures,omitempty"`
	RequestDigest string                 `json:"request_digest,omitempty"`
	Rounds        int                    `json:"rounds,omitempty"`
	TraceFile     string                 `json:"trace_file,omitempty"`
	SelfTimes     []selfRow              `json:"self_times,omitempty"`
}

// results is the file -o writes and -compare reads.
type results struct {
	Meta      meta                       `json:"meta"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// defaultOutDir is the benchmark's own out/ directory, from the repository
// root or from inside benchmark/.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// driverLine is the last line of a single run's standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	sp, err := loadSpec()
	if err != nil {
		logf("benchmark: %v", err)
		return 1
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "", "workload to run (default: every workload, untraced then traced)")
	seed := fs.Int64("seed", 1, "seed of row order, c sequences and append batches")
	seconds := fs.Float64("seconds", float64(sp.RunSeconds), "time to measure for; fixes the number of rounds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run and its per-layer metrics")
	scale := fs.String("scale", "full", "full, or tiny for the go-test smoke")
	outDir := fs.String("out-dir", defaultOutDir(), "where span files and results.json go")
	compare := fs.Bool("compare", false, "compare two results files: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			logf("usage: benchmark -compare old.json new.json")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1))
	}
	if *scale != "full" && *scale != "tiny" {
		logf("benchmark: unknown scale %q", *scale)
		return 2
	}
	if !(*seconds > 0) {
		logf("benchmark: -seconds must be positive")
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)
	res := &results{
		Meta: meta{
			Seed: *seed, Seconds: *seconds, Scale: *scale, GitSHA: gitSHA(), GoVersion: runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPUModel: cpuModel(),
		},
		Workloads: map[string]*workloadResult{},
	}
	fmt.Printf("seed=%d seconds=%g scale=%s git=%s %s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		res.Meta.Seed, res.Meta.Seconds, res.Meta.Scale, res.Meta.GitSHA, res.Meta.GoVersion,
		res.Meta.GOMAXPROCS, res.Meta.NProc, res.Meta.CPUModel)

	cfg := runConfig{seed: *seed, seconds: *seconds, tiny: *scale == "tiny", outDir: *outDir, deadline: runDeadline}
	names, traces := sp.workloadNames(), []int{0, 1}
	if *workloadFlag != "" {
		names, traces = []string{*workloadFlag}, []int{*trace}
	}
	var last driverLine
	for _, name := range names {
		wr := &workloadResult{}
		res.Workloads[name] = wr
		for _, tr := range traces {
			line, err := runOne(sp, wr, name, tr == 1, cfg)
			if err != nil {
				logf("benchmark: %s: %v", name, err)
				return 1
			}
			last = line
		}
	}
	if err := writeResults(filepath.Join(*outDir, "results.json"), res); err != nil {
		logf("benchmark: %v", err)
		return 1
	}
	if *workloadFlag != "" {
		out, err := json.Marshal(last)
		if err != nil {
			logf("benchmark: %v", err)
			return 1
		}
		fmt.Println(string(out))
	}
	return 0
}

// runOne makes one run of one workload, prints the metrics BENCHMARK.json
// lists for it by name and unit, and files them in wr. A metric the file
// lists and the run did not measure, or the reverse, is an error.
func runOne(sp *spec, wr *workloadResult, name string, traced bool, cfg runConfig) (driverLine, error) {
	line := driverLine{Metrics: map[string]driverValue{}}
	if !traced {
		r, err := runEndToEnd(name, cfg)
		if err != nil {
			return line, err
		}
		wr.EndToEnd, wr.RequestDigest, wr.Rounds = map[string]metricValue{}, r.digest, r.rounds
		wr.Attempted, wr.Failed, wr.Failures = r.attempted, r.failed, r.failures
		line.Attempted, line.Failed = r.attempted, r.failed
		fmt.Printf("\n%s, tracing off: %d rounds, %d ops attempted, %d failed\n", name, r.rounds, r.attempted, r.failed)
		for _, m := range sp.EndToEnd {
			v, ok := r.metrics[m.Name]
			if !ok {
				return line, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			v.Unit = m.Unit
			fmt.Printf("  %-18s %14.4f %-5s  rounds [%.4f .. %.4f]  samples %d\n", m.Name, v.Value, v.Unit, v.Lo, v.Hi, v.Samples)
			wr.EndToEnd[m.Name] = v
			line.Metrics[m.Name] = driverValue{v.Value, v.Unit}
		}
		if len(r.metrics) != len(sp.EndToEnd) {
			return line, fmt.Errorf("the run measured %d end-to-end metrics, BENCHMARK.json lists %d", len(r.metrics), len(sp.EndToEnd))
		}
	} else {
		r, err := runTraced(name, cfg)
		if err != nil {
			return line, err
		}
		wr.PerLayer = map[string]metricValue{}
		wr.TraceFile, wr.SelfTimes = r.tracePath, r.self
		wr.Attempted, wr.Failed, wr.Failures = wr.Attempted+r.attempted, wr.Failed+r.failed, append(wr.Failures, r.failures...)
		line.Attempted, line.Failed = r.attempted, r.failed
		fmt.Printf("\n%s, traced: %d ops attempted, %d failed, spans in %s\n", name, r.attempted, r.failed, r.tracePath)
		samples := int(r.metrics["bench.samples"])
		for _, m := range sp.PerLayer {
			v, ok := r.metrics[m.Name]
			if !ok {
				return line, fmt.Errorf("per-layer metric %s was not measured", m.Name)
			}
			fmt.Printf("  %-40s %16.4f %s\n", m.Name, v, m.Unit)
			wr.PerLayer[m.Name] = metricValue{Value: v, Unit: m.Unit, Lo: v, Hi: v, Samples: samples}
			line.Metrics[m.Name] = driverValue{v, m.Unit}
		}
		if len(r.metrics) != len(sp.PerLayer) {
			return line, fmt.Errorf("the run measured %d per-layer metrics, BENCHMARK.json lists %d", len(r.metrics), len(sp.PerLayer))
		}
		fmt.Printf("  self time by span, traced ops only (sum of self times / op duration: median %.3f)\n", r.metrics["bench.self_time_ratio"])
		for _, row := range r.self {
			fmt.Printf("    %-34s %7d spans %12.3f ms %6.1f%%\n", row.Name, row.Count, row.SelfMS, 100*row.Share)
		}
	}
	wr.FailedShare = ratio(float64(wr.Failed), float64(wr.Attempted))
	line.Correct = line.Failed == 0
	return line, nil
}

func writeResults(path string, res *results) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
