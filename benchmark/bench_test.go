package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func mustSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func tinyConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, seconds: 0.05, tiny: true, outDir: t.TempDir(), deadline: runDeadline}
}

// TestBenchmarkJSON checks the limits BENCHMARK.json has to keep.
func TestBenchmarkJSON(t *testing.T) {
	sp := mustSpec(t)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range sp.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	setup := 0
	for _, m := range sp.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup++
		}
	}
	if setup != 1 {
		t.Errorf("want exactly one setup_s metric in seconds, lower is better; have %d", setup)
	}
	for _, m := range sp.PerLayer {
		name(m.Name)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

// TestSmokeTiny runs every workload untraced and traced at the tiny scale,
// the way the driver calls a run, and checks what comes out: every metric
// BENCHMARK.json names, exactly those, no failed op, and a span file that
// is a well-formed forest.
func TestSmokeTiny(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	sp := mustSpec(t)
	for _, name := range sp.workloadNames() {
		t.Run(name, func(t *testing.T) {
			wr := &workloadResult{}
			for _, traced := range []bool{false, true} {
				line, err := runOne(sp, wr, name, traced, tinyConfig(t))
				if err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d: %+v", traced, line.Correct, line.Attempted, line.Failed, wr.Failures)
				}
				want := map[string]string{}
				for _, m := range sp.EndToEnd {
					if !traced {
						want[m.Name] = m.Unit
					}
				}
				for _, m := range sp.PerLayer {
					if traced {
						want[m.Name] = m.Unit
					}
				}
				for n, v := range line.Metrics {
					if want[n] != v.Unit {
						t.Errorf("traced=%v: metric %s has unit %q, BENCHMARK.json says %q", traced, n, v.Unit, want[n])
					}
					delete(want, n)
				}
				for n := range want {
					t.Errorf("traced=%v: metric %s was not emitted", traced, n)
				}
				if _, err := json.Marshal(line); err != nil {
					t.Errorf("traced=%v: result line does not encode: %v", traced, err)
				}
			}
			if wr.FailedShare != 0 {
				t.Errorf("failed_share = %v, want 0", wr.FailedShare)
			}
			for _, m := range sp.EndToEnd {
				if v := wr.EndToEnd[m.Name].Value; v <= 0 {
					t.Errorf("%s = %v, want a positive number", m.Name, v)
				}
			}
			checkSpanFile(t, wr.TraceFile, name)
		})
	}
}

// TestDeadlineEndsRun: a run whose deadline has passed sends no more ops,
// counts them as failed and still ends, traced or not, and the next run in
// the process counts its deadline from its own start.
func TestDeadlineEndsRun(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	sp := mustSpec(t)
	for _, name := range []string{"live-append", "sharded-remote"} {
		late := tinyConfig(t)
		late.deadline = time.Nanosecond
		for _, traced := range []bool{false, true} {
			line, err := runOne(sp, &workloadResult{}, name, traced, late)
			if err != nil {
				t.Fatal(err)
			}
			if line.Correct || line.Attempted < 1 || line.Failed != line.Attempted {
				t.Errorf("%s traced=%v past its deadline: correct=%v attempted=%d failed=%d, want every op failed", name, traced, line.Correct, line.Attempted, line.Failed)
			}
		}
		line, err := runOne(sp, &workloadResult{}, name, false, tinyConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		if !line.Correct {
			t.Errorf("%s after a run that passed its deadline: %d of %d ops failed", name, line.Failed, line.Attempted)
		}
	}
}

func checkSpanFile(t *testing.T, path, workload string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if tf.Workload != workload || len(tf.Spans) == 0 {
		t.Fatalf("%s: workload %q with %d spans", path, tf.Workload, len(tf.Spans))
	}
	ids := map[int]bool{}
	for _, s := range tf.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %d (%s): parent %d is not recorded before it", s.ID, s.Name, s.Parent)
		}
		if ids[s.ID] {
			t.Errorf("span id %d is used twice", s.ID)
		}
		ids[s.ID] = true
		if s.EndUS < s.StartUS {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for id, self := range selfTimes(tf.Spans) {
		if self < -1e-6 {
			t.Errorf("span %d: self time %v us", id, self)
		}
	}
	names := map[string]bool{}
	for _, s := range tf.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"ladder", "scorpion.explain", "srv:explain", "naive.search/workers=1"} {
		if !names[want] {
			t.Errorf("%s: no span named %q", path, want)
		}
	}
}

// TestSeedDecidesRequests: equal seeds send byte-identical requests, a
// different seed sends different ones.
func TestSeedDecidesRequests(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(benchProcs))
	digest := func(name string, seed int64) string {
		t.Helper()
		cfg := tinyConfig(t)
		cfg.seed = seed
		w, h, _, err := setupTimed(name, cfg, time.Now(), 1)
		if err != nil {
			t.Fatal(err)
		}
		defer h.close()
		defer w.close()
		if _, err := runRound(w, h, 0, nil); err != nil {
			t.Fatal(err)
		}
		if n := h.failureCount(); n != 0 {
			t.Errorf("%s seed %d: %d failed ops: %+v", name, seed, n, h.failures)
		}
		return h.requestDigest()
	}
	for _, name := range mustSpec(t).workloadNames() {
		a, b, c := digest(name, 7), digest(name, 7), digest(name, 8)
		if a != b {
			t.Errorf("%s: two runs at seed 7 sent different requests (%s, %s)", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 sent the same requests (%s)", name, a)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []*spanRec{
		{ID: 1, Name: "op", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "a", StartUS: 10, EndUS: 50},
		{ID: 3, Parent: 1, Name: "b", StartUS: 40, EndUS: 70},   // overlaps a: [10,70) is covered once
		{ID: 4, Parent: 1, Name: "c", StartUS: 90, EndUS: 120},  // clipped to the parent
		{ID: 5, Parent: 2, Name: "a1", StartUS: 10, EndUS: 50},  // covers a entirely
		{ID: 6, Parent: 9, Name: "lost", StartUS: 0, EndUS: 10}, // parent unknown: a root
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 30, 2: 0, 3: 30, 4: 30, 5: 40, 6: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	rows, ratios := selfTable(spans, func(s *spanRec) bool { return s.Name == "op" })
	if len(ratios) != 1 || ratios[0] != 1.3 {
		t.Errorf("ratios = %v, want [1.3] (b and c overhang their siblings and parent)", ratios)
	}
	if len(rows) != 5 || rows[0].Name != "a1" {
		t.Errorf("rows = %+v, want five names led by a1", rows)
	}
}

func TestCompareVerdicts(t *testing.T) {
	sp := mustSpec(t)
	lower := metricSpec{Name: "explain_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "explain_rps", Unit: "1/s", Better: "higher", Bound: 0.10}
	mv := func(v, lo, hi float64) metricValue { return metricValue{Value: v, Lo: lo, Hi: hi} }
	for _, tc := range []struct {
		name     string
		spec     metricSpec
		old, cur metricValue
		want     string
	}{
		{"unchanged", lower, mv(100, 98, 102), mv(101, 99, 103), "ok"},
		{"slower beyond the bound", lower, mv(100, 98, 102), mv(115, 113, 117), "regressed"},
		{"faster", lower, mv(100, 98, 102), mv(80, 78, 82), "ok"},
		{"wide and overlapping", lower, mv(100, 90, 112), mv(108, 95, 120), "unresolved"},
		{"wide but every round worse", lower, mv(100, 90, 112), mv(130, 120, 140), "regressed"},
		{"wide but every round better", lower, mv(100, 90, 112), mv(70, 60, 80), "ok"},
		{"throughput down", higher, mv(50, 49, 51), mv(40, 39, 41), "regressed"},
		{"throughput up", higher, mv(50, 49, 51), mv(60, 59, 61), "ok"},
	} {
		if _, got := verdict(tc.spec, tc.old, tc.cur); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	file := func(p50 float64, failed int) *results {
		e2e := map[string]metricValue{}
		for _, m := range sp.EndToEnd {
			e2e[m.Name] = mv(10, 9.9, 10.1)
		}
		e2e["explain_p50_ms"] = mv(p50, p50*0.99, p50*1.01)
		return &results{Workloads: map[string]*workloadResult{"cold-naive": {EndToEnd: e2e, Failed: failed}}}
	}
	if code := compareResults(sp, file(100, 0), file(101, 0)); code != 0 {
		t.Errorf("unchanged results: exit %d, want 0", code)
	}
	if code := compareResults(sp, file(100, 0), file(150, 0)); code != 1 {
		t.Errorf("regressed p50: exit %d, want 1", code)
	}
	if code := compareResults(sp, file(100, 0), file(100, 3)); code != 1 {
		t.Errorf("new failed ops: exit %d, want 1", code)
	}
}
