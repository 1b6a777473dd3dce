package wire

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

func validTask() *Task {
	out := relation.NewRowSet(100)
	out.AddRange(10, 20)
	return &Task{
		Version:   Version,
		Table:     "t",
		Rows:      1000,
		SQL:       "SELECT sum(v), g FROM t GROUP BY g",
		WindowLo:  200,
		WindowHi:  300,
		Algorithm: "naive",
		Bins:      10,
		Attrs:     []string{"a"},
		Lambda:    0.5,
		C:         0.2,
		Outliers:  []Group{{Key: "out", Direction: 1, Rows: out.AppendBinary(nil)}},
	}
}

func TestTaskJSONRoundTrip(t *testing.T) {
	task := validTask()
	task.Domains = EncodeDomains(map[int]predicate.Domain{2: {Lo: -1, Hi: 9, Card: 0}, 1: {Lo: 0, Hi: 1}})
	hold := relation.RowSetOf(100, 1, 2, 3, 90)
	task.HoldOuts = EncodeGroups([]influence.Group{{Key: "hold", Rows: hold}})

	data, err := json.Marshal(task)
	if err != nil {
		t.Fatal(err)
	}
	var back Task
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	// Domains arrive sorted by column and rebuild the exact map.
	if back.Domains[0].Col != 1 || back.Domains[1].Col != 2 {
		t.Fatalf("domains not sorted by column: %+v", back.Domains)
	}
	doms := DecodeDomains(back.Domains)
	if d := doms[2]; d.Lo != -1 || d.Hi != 9 {
		t.Fatalf("domain 2 = %+v", d)
	}
	// Group provenance survives the base64 detour bit-for-bit.
	groups, err := DecodeGroups(back.Outliers, 100)
	if err != nil {
		t.Fatal(err)
	}
	if groups[0].Key != "out" || groups[0].Direction != 1 || groups[0].Rows.Count() != 10 {
		t.Fatalf("outlier group decoded wrong: %+v", groups[0])
	}
	holds, err := DecodeGroups(back.HoldOuts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !holds[0].Rows.Equal(hold) {
		t.Fatal("hold-out provenance drifted through the wire")
	}
}

func TestDecodeGroupsRejections(t *testing.T) {
	rs := relation.RowSetOf(100, 5)
	enc := rs.AppendBinary(nil)
	if _, err := DecodeGroups([]Group{{Key: "g", Rows: enc}}, 50); err == nil {
		t.Fatal("wrong universe accepted")
	}
	if _, err := DecodeGroups([]Group{{Key: "g", Rows: append(enc, 0)}}, 100); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeGroups([]Group{{Key: "g", Rows: enc[:2]}}, 100); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func testCandidates(t *testing.T) []partition.Candidate {
	t.Helper()
	p1, err := predicate.New(predicate.NewRangeClause(1, "a", 2, 5, false))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := predicate.New(
		predicate.NewRangeClause(1, "a", 0, 1, true),
		predicate.NewSetClause(2, "b", []int32{3, 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return []partition.Candidate{
		{Pred: p1, Score: 1.5, HoldPenalty: 0.25, InfluencesHoldOut: true},
		{Pred: p2, Score: -2},
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	out := &partition.Outcome{
		Candidates: testCandidates(t),
		Work:       42,
	}
	res := EncodeOutcome(out)
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var wres Result
	if err := json.Unmarshal(data, &wres); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeOutcome(&wres)
	if err != nil {
		t.Fatal(err)
	}
	if back.Work != 42 || back.Interrupted {
		t.Fatalf("outcome counters drifted: %+v", back)
	}
	if len(back.Candidates) != len(out.Candidates) {
		t.Fatalf("candidate count %d != %d", len(back.Candidates), len(out.Candidates))
	}
	for i := range back.Candidates {
		g, w := back.Candidates[i], out.Candidates[i]
		if g.Pred.Key() != w.Pred.Key() {
			t.Fatalf("candidate %d: key %q != %q", i, g.Pred.Key(), w.Pred.Key())
		}
		if g.Score != w.Score || g.HoldPenalty != w.HoldPenalty || g.InfluencesHoldOut != w.InfluencesHoldOut {
			t.Fatalf("candidate %d drifted: %+v vs %+v", i, g, w)
		}
	}
}

// TestDecodeOutcomeIgnoresRetiredStats: a version-2 worker that still
// sends the per-group statistics Candidate used to carry (group_cards,
// cached_rows, mean_influences) yields the same predicates, scores and
// penalties as one that does not — the removal keeps Version at 2.
func TestDecodeOutcomeIgnoresRetiredStats(t *testing.T) {
	data, err := json.Marshal(EncodeOutcome(&partition.Outcome{Candidates: testCandidates(t), Work: 7}))
	if err != nil {
		t.Fatal(err)
	}
	var old map[string]any
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}
	if old["version"] != float64(2) {
		t.Fatalf("envelope version %v, want 2", old["version"])
	}
	for _, c := range old["candidates"].([]any) {
		c := c.(map[string]any)
		c["group_cards"] = []float64{3, 0}
		c["cached_rows"] = []int{7, -1}
		c["mean_influences"] = []float64{0.5, 0}
	}
	oldData, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(data []byte) *partition.Outcome {
		t.Helper()
		var r Result
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		o, err := DecodeOutcome(&r)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	want, got := decode(data), decode(oldData)
	if got.Work != want.Work || len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("old-peer outcome %+v, want %+v", got, want)
	}
	for i, g := range got.Candidates {
		w := want.Candidates[i]
		if g.Pred.Key() != w.Pred.Key() || g.Score != w.Score || g.HoldPenalty != w.HoldPenalty || g.InfluencesHoldOut != w.InfluencesHoldOut {
			t.Fatalf("candidate %d: old peer %+v, want %+v", i, g, w)
		}
	}
}

func TestDecodeCandidatesFingerprintMismatch(t *testing.T) {
	enc := EncodeCandidates(testCandidates(t))
	enc[0].Key = "sum(v):bogus"
	if _, err := DecodeCandidates(enc); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("corrupted fingerprint accepted (err = %v)", err)
	}

	// A mutated clause must fail the same way: the recomputed canonical key
	// no longer matches what the producer stamped.
	enc = EncodeCandidates(testCandidates(t))
	enc[0].Clauses[0].Hi += 1
	if _, err := DecodeCandidates(enc); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("mutated clause accepted (err = %v)", err)
	}

	enc = EncodeCandidates(testCandidates(t))
	enc[0].Clauses[0].Kind = "mystery"
	if _, err := DecodeCandidates(enc); err == nil {
		t.Fatal("unknown clause kind accepted")
	}
}

func TestDecodeOutcomeVersionMismatch(t *testing.T) {
	res := EncodeOutcome(&partition.Outcome{})
	res.Version = Version + 1
	if _, err := DecodeOutcome(res); err == nil {
		t.Fatal("future result version accepted")
	}
}

func TestTaskValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Task)
	}{
		{"future version", func(t *Task) { t.Version = Version + 1 }},
		{"version 1, which may carry a perturb target", func(t *Task) { t.Version = 1 }},
		{"no table", func(t *Task) { t.Table = "" }},
		{"no sql", func(t *Task) { t.SQL = "" }},
		{"negative window", func(t *Task) { t.WindowLo = -1 }},
		{"inverted window", func(t *Task) { t.WindowHi = t.WindowLo - 1 }},
		{"dt never serializes", func(t *Task) { t.Algorithm = "dt" }},
		{"no outliers", func(t *Task) { t.Outliers = nil }},
		{"no attrs", func(t *Task) { t.Attrs = nil }},
	}
	if err := validTask().Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	for _, tc := range cases {
		task := validTask()
		tc.mutate(task)
		if err := task.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
