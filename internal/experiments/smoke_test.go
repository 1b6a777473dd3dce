package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tinyScale keeps every figure runnable in well under a second each.
func tinyScale() Scale {
	return Scale{TuplesPerGroup: 80, Groups: 4, OutlierGroups: 2, Bins: 6,
		NaiveDeadline: 2 * time.Second, Seed: 1}
}

func TestSmokeFigure9(t *testing.T) {
	var buf bytes.Buffer
	rows, err := Figure9(tinyScale(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 c panels", len(rows))
	}
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("missing section header")
	}
	// A higher c must never match more tuples than the panel before it
	// (selectivity knob).
	for i := 1; i < len(rows); i++ {
		if rows[i].Matched > rows[i-1].Matched {
			t.Errorf("c=%v matched %d > c=%v matched %d",
				rows[i].C, rows[i].Matched, rows[i-1].C, rows[i-1].Matched)
		}
	}
}

func TestSmokeFigure10(t *testing.T) {
	rows, err := Figure10(tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 datasets × |CSweep| × 2 truths.
	want := 2 * len(CSweep) * 2
	if len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.Acc.Precision < 0 || r.Acc.Precision > 1 || r.Acc.Recall < 0 || r.Acc.Recall > 1 {
			t.Fatalf("out-of-range accuracy: %+v", r)
		}
	}
}

func TestSmokeFigure11(t *testing.T) {
	rows, err := Figure11(tinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no convergence points")
	}
	// Elapsed within a c series must be non-decreasing.
	var lastC float64 = -1
	var lastElapsed time.Duration
	for _, r := range rows {
		if r.C != lastC {
			lastC, lastElapsed = r.C, 0
		}
		if r.Elapsed < lastElapsed {
			t.Fatalf("time went backwards within c=%v series", r.C)
		}
		lastElapsed = r.Elapsed
	}
}

func TestSmokeFigure12(t *testing.T) {
	s := tinyScale()
	rows, err := Figure12(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	algos := map[string]bool{}
	for _, r := range rows {
		algos[r.Algorithm] = true
	}
	for _, a := range []string{"naive", "dt", "mc"} {
		if !algos[a] {
			t.Errorf("algorithm %s missing from grid", a)
		}
	}
}

func TestSmokeFigure13And14(t *testing.T) {
	s := tinyScale()
	s.Algorithms = []string{"dt", "mc"} // keep the 4D grid fast
	rows13, err := Figure13(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	dims := map[int]bool{}
	for _, r := range rows13 {
		dims[r.Dims] = true
	}
	for _, d := range []int{2, 3, 4} {
		if !dims[d] {
			t.Errorf("dims %d missing", d)
		}
	}
	rows14, err := Figure14(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows14 {
		if r.Elapsed <= 0 {
			t.Fatalf("non-positive elapsed for %+v", r)
		}
	}
}

// TestSmokeNaiveDeadline: a NAIVE cell its deadline stops
// keeps the best predicate found by then, flagged Interrupted, instead of
// failing. Quick 4-D NAIVE runs for seconds, far past the deadline.
func TestSmokeNaiveDeadline(t *testing.T) {
	s := QuickScale()
	s.NaiveDeadline = 300 * time.Millisecond
	out, err := s.RunAlgorithm("naive", s.synthDataset(4, mu("Hard")), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Interrupted {
		t.Fatalf("NAIVE finished 4-D inside %v; the cell needs a longer search", s.NaiveDeadline)
	}
	if out.Best.NumClauses() == 0 || !(out.Score > 0) {
		t.Errorf("interrupted NAIVE kept %q at influence %v, want its best-so-far", out.Best.Key(), out.Score)
	}
}

func TestSmokeFigure15(t *testing.T) {
	s := tinyScale()
	rows, err := Figure15(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestSmokeFigure16(t *testing.T) {
	s := tinyScale()
	rows, err := Figure16(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 dims × 2 difficulties × 6 c values.
	if len(rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(rows))
	}
	// Cached total must not wildly exceed the fresh total.
	var cached, fresh time.Duration
	for _, r := range rows {
		cached += r.Cached
		fresh += r.NoCache
	}
	if cached > fresh*2 {
		t.Errorf("cached sweep (%v) much slower than fresh (%v)", cached, fresh)
	}
	// The sweep's first c finds the session cold, so both runs score alike;
	// every later c re-uses the partitioning and scores strictly less.
	for _, r := range rows {
		first := r.C == rows[0].C
		if first && r.CachedCalls != r.FreshCalls {
			t.Errorf("%dD-%s c=%v: cold session made %d scorer calls, fresh run %d",
				r.Dims, r.Difficulty, r.C, r.CachedCalls, r.FreshCalls)
		}
		if !first && r.CachedCalls >= r.FreshCalls {
			t.Errorf("%dD-%s c=%v: cached run made %d scorer calls, not fewer than fresh %d",
				r.Dims, r.Difficulty, r.C, r.CachedCalls, r.FreshCalls)
		}
	}
}

func TestSmokeRunningExample(t *testing.T) {
	var buf bytes.Buffer
	expl, err := RunningExample(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if expl != "sensorid in ('3')" && !strings.Contains(expl, "voltage") {
		t.Errorf("running example explanation = %q", expl)
	}
	for _, want := range []string{"Table 1", "Table 2", "56.667", "α2"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestSmokeIntelBothWorkloads(t *testing.T) {
	scale := IntelScale{Hours: 20, Sensors: 18, EpochsPerHour: 2, Seed: 3}
	for _, wl := range []int{1, 2} {
		rows, err := IntelWorkload(wl, scale, nil)
		if err != nil {
			t.Fatalf("workload %d: %v", wl, err)
		}
		// At least one c setting must implicate the scripted sensor.
		culprit := "15"
		if wl == 2 {
			culprit = "18"
		}
		found := false
		for _, r := range rows {
			if strings.Contains(r.Predicate, "'"+culprit+"'") {
				found = true
			}
		}
		if !found {
			t.Errorf("workload %d never implicated sensor %s: %+v", wl, culprit, rows)
		}
	}
}

func TestSmokeExpense(t *testing.T) {
	rows, err := ExpenseWorkload(ExpenseScale{Days: 15, RowsPerDay: 40, Recipients: 60, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	foundGMMB := false
	for _, r := range rows {
		if strings.Contains(r.Predicate, "GMMB INC.") ||
			strings.Contains(r.Predicate, "800316") {
			foundGMMB = true
		}
	}
	if !foundGMMB {
		t.Errorf("expense workload never found the media buys: %+v", rows)
	}
}

func TestTextTable(t *testing.T) {
	var buf bytes.Buffer
	tbl := NewTextTable("a", "bb")
	tbl.AddRow("x", 1.5)
	tbl.AddRow("longer", 2)
	tbl.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "longer") || !strings.Contains(out, "1.500") {
		t.Errorf("table output:\n%s", out)
	}
	// nil writer is a no-op.
	tbl.Render(nil)
	Section(nil, "nothing")
}
