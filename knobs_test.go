package scorpion

// Regression tests for the explicit-zero knob fix, the hold-out flag
// recomputation in the exact re-score, the count(*) algorithm auto-pick,
// and the Session's §8.3.3 partition reuse.

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// mustPlan resolves req or fails the test.
func mustPlan(t *testing.T, req *Request) *Plan {
	t.Helper()
	p, err := req.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestExplicitZeroKnobsReachScorer proves SetLambda(0)/SetC(0) survive to
// the scorer's task, while plain zero fields still resolve to defaults —
// the Plan step that un-aliases "unset" from "explicitly 0".
func TestExplicitZeroKnobsReachScorer(t *testing.T) {
	base := Request{
		Table:            sensorsTable(t),
		SQL:              "SELECT avg(temp), time FROM sensors GROUP BY time",
		Outliers:         []string{"12PM", "1PM"},
		AllOthersHoldOut: true,
	}

	unset := base
	s, _, _, err := buildScorer(mustPlan(t, &unset))
	if err != nil {
		t.Fatal(err)
	}
	if s.Task().Lambda != DefaultLambda || s.Task().C != DefaultC {
		t.Fatalf("unset knobs resolved to λ=%v c=%v, want defaults %v/%v",
			s.Task().Lambda, s.Task().C, DefaultLambda, DefaultC)
	}

	explicit := base
	explicit.SetLambda(0) // legal §3.2 setting: all weight on hold-outs
	explicit.SetC(0)      // legal §7 setting: Δ unscaled by |p(g)|
	p := mustPlan(t, &explicit)
	s, _, _, err = buildScorer(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Task().Lambda != 0 || s.Task().C != 0 {
		t.Fatalf("explicit zeros reached the scorer as λ=%v c=%v, want 0/0",
			s.Task().Lambda, s.Task().C)
	}
	if p.lambda != 0 || p.c != 0 {
		t.Errorf("Plan resolved explicit zeros to λ=%v c=%v, want 0/0", p.lambda, p.c)
	}

	// Non-zero field writes keep working without the setters.
	direct := base
	direct.Lambda, direct.C = 0.3, 0.7
	if p := mustPlan(t, &direct); p.lambda != 0.3 || p.c != 0.7 {
		t.Errorf("non-zero field writes resolved to λ=%v c=%v", p.lambda, p.c)
	}

	// Bins 0 is the paper's 15: the explicit default shares the unset
	// grid's key, another grid does not.
	key := func(bins int) string {
		r := base
		r.Bins = bins
		return mustPlan(t, &r).Key("t")
	}
	if key(0) != key(15) {
		t.Error("Bins 0 and 15 resolve to different keys")
	}
	if key(10) == key(0) {
		t.Error("Bins 10 shares the default grid's key")
	}
}

// TestNonFiniteKnobsRejected: NaN and ±Inf for λ and c are refused with an
// error naming the knob at every entry point instead of silently producing
// an all-NaN ranking (NaN fails "x < 0 || x > 1"), and so are a negative
// grid and one above the cap.
func TestNonFiniteKnobsRejected(t *testing.T) {
	base := Request{
		Table:            sensorsTable(t),
		SQL:              "SELECT avg(temp), time FROM sensors GROUP BY time",
		Outliers:         []string{"12PM", "1PM"},
		AllOthersHoldOut: true,
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, knob string
		set        func(*Request)
	}{
		{"lambda NaN", "lambda", func(r *Request) { r.Lambda = nan }},
		{"lambda +Inf", "lambda", func(r *Request) { r.Lambda = inf }},
		{"c NaN", "c", func(r *Request) { r.C = nan }},
		{"c +Inf", "c", func(r *Request) { r.C = inf }},
		{"c -Inf", "c", func(r *Request) { r.C = -inf }},
		{"bins -1", "bins", func(r *Request) { r.Bins = -1 }},
		{"bins 100000", "bins", func(r *Request) { r.Bins = 100_000 }},
	}
	for _, tc := range cases {
		req := base
		tc.set(&req)
		res, err := Explain(&req)
		switch {
		case err == nil:
			t.Errorf("%s: accepted, top influence %v", tc.name, res.Explanations[0].Influence)
		case !strings.HasPrefix(err.Error(), "scorpion: "+tc.knob+" "):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.knob)
		}
	}
	if _, err := Explain(&base); err != nil {
		t.Fatalf("finite knobs refused: %v", err)
	}
	e, err := NewExplainer(&base)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{nan, inf, -inf} {
		if _, err := e.ExplainC(c); err == nil {
			t.Errorf("ExplainC(%v) accepted", c)
		}
	}
}

// TestBinsCappedAtPlan: a grid above 1,024 bins is refused by Plan, naming
// bins, before any search lays out a clause; the cap itself plans.
func TestBinsCappedAtPlan(t *testing.T) {
	base := Request{
		Table:            sensorsTable(t),
		SQL:              "SELECT avg(temp), time FROM sensors GROUP BY time",
		Outliers:         []string{"12PM", "1PM"},
		AllOthersHoldOut: true,
		Algorithm:        Naive,
	}
	req := base
	req.Bins = 100_000
	if p, err := req.Plan(); err == nil || !strings.HasPrefix(err.Error(), "scorpion: bins 100000 ") {
		t.Fatalf("Plan(Bins: 100000) = %v, %v; want an error naming bins", p, err)
	}
	req.Bins = partition.MaxGridBins
	if p := mustPlan(t, &req); p.Bins(Naive) != partition.MaxGridBins {
		t.Fatalf("Plan(Bins: %d) resolved to %d", partition.MaxGridBins, p.Bins(Naive))
	}
}

// TestLambdaZeroChangesRanking is the behavioral half: with λ = 0 the
// objective is −(1−λ)·max_h|inf(h,p)| ≤ 0, so every reported influence
// must be non-positive — under the old bug (0 silently replaced by 0.5)
// the top influence stayed positive.
func TestLambdaZeroChangesRanking(t *testing.T) {
	req := &Request{
		Table:            sensorsTable(t),
		SQL:              "SELECT avg(temp), time FROM sensors GROUP BY time",
		Outliers:         []string{"12PM", "1PM"},
		AllOthersHoldOut: true,
		Direction:        TooHigh,
	}
	req.SetLambda(0)
	res, err := Explain(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Explanations {
		if e.Influence > 0 {
			t.Fatalf("λ=0 influence %v > 0 for %q: explicit zero was replaced by the default", e.Influence, e.Where)
		}
	}
}

// TestAssembleRecomputesHoldOutFlag checks the rank phase derives
// InfluencesHoldOut from the exact re-scored penalty: a predicate that
// touches no hold-out rows is not flagged, and one that perturbs a
// hold-out is.
func TestAssembleRecomputesHoldOutFlag(t *testing.T) {
	req := &Request{
		Table:            sensorsTable(t),
		SQL:              "SELECT avg(temp), time FROM sensors GROUP BY time",
		Outliers:         []string{"12PM", "1PM"},
		AllOthersHoldOut: true,
		Direction:        TooHigh,
	}
	p := mustPlan(t, req)
	scorer, _, _, err := buildScorer(p)
	if err != nil {
		t.Fatal(err)
	}
	tempCol := req.Table.Schema().MustIndex("temp")
	// temp ∈ [80, 200] matches rows only in the outlier groups (11AM temps
	// are ~35): exact hold-out penalty 0.
	outlierOnly := predicate.MustNew(predicate.NewRangeClause(tempCol, "temp", 80, 200, true))
	// temp ∈ [34, 34.5] matches one 11AM row: exact penalty > 0.
	holdOutTouching := predicate.MustNew(predicate.NewRangeClause(tempCol, "temp", 34, 34.5, true))
	cands := []partition.Candidate{
		{Pred: outlierOnly, Score: 1},
		{Pred: holdOutTouching, Score: 0.5},
	}
	scored, _ := rescoreExact(scorer, nil, cands, false)
	res := present(p, scorer, scored, nil, nil)
	if len(res.Explanations) != 2 {
		t.Fatalf("explanations = %d, want 2", len(res.Explanations))
	}
	for _, e := range res.Explanations {
		wantFlag := e.HoldOutPenalty > 0
		if e.InfluencesHoldOut != wantFlag {
			t.Errorf("%q: InfluencesHoldOut = %v contradicts exact HoldOutPenalty %v",
				e.Where, e.InfluencesHoldOut, e.HoldOutPenalty)
		}
	}
	// And the penalties themselves split as constructed.
	if res.Explanations[0].HoldOutPenalty != 0 {
		t.Errorf("outlier-only predicate has penalty %v", res.Explanations[0].HoldOutPenalty)
	}
	if res.Explanations[1].HoldOutPenalty <= 0 {
		t.Errorf("hold-out-touching predicate has penalty %v", res.Explanations[1].HoldOutPenalty)
	}
}

// checkRecorder is an anti-monotonic independent aggregate that records
// what check(D) actually received.
type checkRecorder struct {
	sawVals []int // lengths of the value slices passed to Check
}

func (c *checkRecorder) Name() string                   { return "recorder" }
func (c *checkRecorder) Compute(vals []float64) float64 { return float64(len(vals)) }
func (c *checkRecorder) Independent() bool              { return true }
func (c *checkRecorder) Check(vals []float64) bool {
	c.sawVals = append(c.sawVals, len(vals))
	return len(vals) > 0 // an empty projection must NOT pass
}

// TestChooseAlgorithmCountStarChecksData proves the §5.3 check(D) for a
// count(*)-style aggregate (AggCol = -1) runs on real per-tuple values:
// under the old code the chooser built an empty slice, the check passed
// vacuously, and MC was picked without the data ever being inspected.
func TestChooseAlgorithmCountStarChecksData(t *testing.T) {
	tbl := sensorsTable(t)
	rec := &checkRecorder{}
	task := &influence.Task{
		Table:  tbl,
		Agg:    rec,
		AggCol: -1, // count(*): no aggregate column
		Outliers: []influence.Group{
			{Key: "g", Rows: allRows(tbl), Direction: influence.TooHigh},
		},
		Lambda: 0.5,
		C:      0.2,
	}
	scorer, err := influence.NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	algo, err := chooseAlgorithm(&Request{Algorithm: Auto}, scorer)
	if err != nil {
		t.Fatal(err)
	}
	if algo != MC {
		t.Fatalf("auto-picked %v, want MC (check saw real values and passed)", algo)
	}
	if len(rec.sawVals) != 1 || rec.sawVals[0] != tbl.NumRows() {
		t.Fatalf("Check received value slices of lengths %v, want one slice of %d (one value per tuple)",
			rec.sawVals, tbl.NumRows())
	}
}

// TestCountStarAutoPicksMC is the end-to-end sanity: count(*) through SQL
// still resolves to MC (COUNT's check is unconditionally true), now with
// the check actually fed.
func TestCountStarAutoPicksMC(t *testing.T) {
	res, err := Explain(&Request{
		Table:            sensorsTable(t),
		SQL:              "SELECT count(*), time FROM sensors GROUP BY time",
		Outliers:         []string{"12PM"},
		AllOthersHoldOut: true,
		Direction:        TooHigh,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Algorithm != MC {
		t.Errorf("count(*) auto-picked %v, want MC", res.Stats.Algorithm)
	}
}

func allRows(tbl *Table) *RowSet {
	rs := relation.NewRowSet(tbl.NumRows())
	for i := 0; i < tbl.NumRows(); i++ {
		rs.Add(i)
	}
	return rs
}

// TestExplainerSessionReusesPartitioning is the §8.3.3 acceptance test at
// the library level: the second ExplainC (new c) reports ReusedPartition
// and spends strictly fewer scorer calls than a cold one-shot Explain at
// the same c, while returning the same explanations.
func TestExplainerSessionReusesPartitioning(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 400, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 13,
	})
	base := &Request{
		Table:            ds.Table,
		SQL:              "SELECT avg(v), g FROM synth GROUP BY g",
		Outliers:         ds.OutlierKeys,
		AllOthersHoldOut: true,
		Direction:        TooHigh,
		Attributes:       ds.DimNames(),
		Algorithm:        DT,
	}
	exp, err := NewExplainer(base)
	if err != nil {
		t.Fatal(err)
	}
	first, err := exp.ExplainC(1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.ReusedPartition {
		t.Error("first session run claims a reused partitioning")
	}
	warm, err := exp.ExplainC(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.ReusedPartition {
		t.Fatal("second session run did not reuse the partitioning")
	}

	cold := *base
	cold.SetC(0.5)
	coldRes, err := Explain(&cold)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.ScorerCalls >= coldRes.Stats.ScorerCalls {
		t.Errorf("warm run spent %d scorer calls, cold %d — reuse saved nothing",
			warm.Stats.ScorerCalls, coldRes.Stats.ScorerCalls)
	}
	if len(warm.Explanations) == 0 || len(coldRes.Explanations) == 0 {
		t.Fatal("no explanations")
	}
	// Seeded merging may converge to a slightly different (equally valid)
	// merged predicate than an unseeded cold run — §8.3.3 trades exact
	// convergence for speed — so compare answer QUALITY, not identity: the
	// warm top's exact influence must be within 10% of the cold top's.
	warmTop, coldTop := warm.Explanations[0].Influence, coldRes.Explanations[0].Influence
	if coldTop <= 0 {
		t.Fatalf("cold top influence %v not positive", coldTop)
	}
	if warmTop < 0.9*coldTop {
		t.Errorf("warm top influence %v degraded vs cold %v", warmTop, coldTop)
	}
}

// TestRescoreKeptPoolReorders: the exact re-score that keeps a pool's
// selections sorts a pool that arrives out of order, moving each
// candidate's selections with it.
func TestRescoreKeptPoolReorders(t *testing.T) {
	req := &Request{
		Table:            sensorsTable(t),
		SQL:              "SELECT avg(temp), time FROM sensors GROUP BY time",
		Outliers:         []string{"12PM", "1PM"},
		AllOthersHoldOut: true,
		Direction:        TooHigh,
	}
	scorer, _, _, err := buildScorer(mustPlan(t, req))
	if err != nil {
		t.Fatal(err)
	}
	tempCol := req.Table.Schema().MustIndex("temp")
	var cands []partition.Candidate
	for _, lo := range []float64{34, 60, 80} {
		cands = append(cands, partition.Candidate{Pred: predicate.MustNew(predicate.NewRangeClause(tempCol, "temp", lo, 200, true))})
	}
	scored, sels := rescoreExact(scorer, nil, cands, true)
	if len(scored) != len(cands) || scored[0].Score <= scored[len(scored)-1].Score {
		t.Fatalf("scores %v, %v not sorted best first", scored[0].Score, scored[len(scored)-1].Score)
	}
	for i, c := range scored {
		if want := scorer.Select(c.Pred, nil); !reflect.DeepEqual(sels[i], want) {
			t.Fatalf("candidate %d keeps selections %v, its own are %v", i, sels[i], want)
		}
	}
}
