package influence

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// sensorsTable builds the paper's Table 1.
func sensorsTable(t testing.TB) *relation.Table {
	t.Helper()
	schema := relation.MustSchema(
		relation.Column{Name: "time", Kind: relation.Discrete},
		relation.Column{Name: "sensorid", Kind: relation.Discrete},
		relation.Column{Name: "voltage", Kind: relation.Continuous},
		relation.Column{Name: "humidity", Kind: relation.Continuous},
		relation.Column{Name: "temp", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	rows := []relation.Row{
		{relation.S("11AM"), relation.S("1"), relation.F(2.64), relation.F(0.4), relation.F(34)},
		{relation.S("11AM"), relation.S("2"), relation.F(2.65), relation.F(0.5), relation.F(35)},
		{relation.S("11AM"), relation.S("3"), relation.F(2.63), relation.F(0.4), relation.F(35)},
		{relation.S("12PM"), relation.S("1"), relation.F(2.7), relation.F(0.3), relation.F(35)},
		{relation.S("12PM"), relation.S("2"), relation.F(2.7), relation.F(0.5), relation.F(35)},
		{relation.S("12PM"), relation.S("3"), relation.F(2.3), relation.F(0.4), relation.F(100)},
		{relation.S("1PM"), relation.S("1"), relation.F(2.7), relation.F(0.3), relation.F(35)},
		{relation.S("1PM"), relation.S("2"), relation.F(2.7), relation.F(0.5), relation.F(35)},
		{relation.S("1PM"), relation.S("3"), relation.F(2.3), relation.F(0.5), relation.F(80)},
	}
	for _, r := range rows {
		b.MustAppend(r)
	}
	return b.Build()
}

// paperTask builds the running example: O = {12PM, 1PM} (too high),
// H = {11AM}, AVG(temp), λ=0.5, c=1.
func paperTask(t testing.TB) *Task {
	t.Helper()
	tbl := sensorsTable(t)
	q, err := query.FromSQL(tbl, "SELECT avg(temp), time FROM sensors GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	get := func(key string) query.ResultRow {
		row, ok := res.Lookup(key)
		if !ok {
			t.Fatalf("missing group %q", key)
		}
		return row
	}
	return &Task{
		Table:  tbl,
		Agg:    aggregate.Avg{},
		AggCol: tbl.Schema().MustIndex("temp"),
		Outliers: []Group{
			{Key: "12PM", Rows: get("12PM").Group, Direction: TooHigh},
			{Key: "1PM", Rows: get("1PM").Group, Direction: TooHigh},
		},
		HoldOuts: []Group{
			{Key: "11AM", Rows: get("11AM").Group},
		},
		Lambda: 0.5,
		C:      1,
	}
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// outlierMean is inf(O, ∅, p, V): Parts' mean outlier influence.
func outlierMean(s *Scorer, p predicate.Predicate) float64 {
	outMean, _ := s.Parts(p)
	return outMean
}

func TestTupleInfluencesMatchPaper(t *testing.T) {
	task := paperTask(t)
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Incremental() {
		t.Fatal("AVG should take the incremental path")
	}
	// §3.2: inf(α2, {T6}) = 21.6̄, inf(α2, {T4}) = −10.8̄ (v = <+1>).
	if got := s.TupleOutlierInfluence(0, 5); !almostEqual(got, 170.0/3-35) {
		t.Errorf("inf(T6) = %v, want %v", got, 170.0/3-35)
	}
	if got := s.TupleOutlierInfluence(0, 3); !almostEqual(got, 170.0/3-67.5) {
		t.Errorf("inf(T4) = %v, want %v", got, 170.0/3-67.5)
	}
}

func TestErrorVectorFlipsSign(t *testing.T) {
	task := paperTask(t)
	task.Outliers[0].Direction = TooLow
	task.Outliers[1].Direction = TooLow
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	// §3.2: with v = <−1>, T6's influence becomes −21.6̄ and T4's +10.8̄.
	if got := s.TupleOutlierInfluence(0, 5); !almostEqual(got, -(170.0/3 - 35)) {
		t.Errorf("inf(T6) = %v", got)
	}
	if got := s.TupleOutlierInfluence(0, 3); !almostEqual(got, 67.5-170.0/3) {
		t.Errorf("inf(T4) = %v", got)
	}
}

// voltagePredicate builds "voltage < 2.4", the ground-truth explanation.
func voltagePredicate(tbl *relation.Table) predicate.Predicate {
	col := tbl.Schema().MustIndex("voltage")
	return predicate.MustNew(predicate.NewRangeClause(col, "voltage", 0, 2.4, false))
}

func TestInfluenceOfVoltagePredicate(t *testing.T) {
	task := paperTask(t)
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	p := voltagePredicate(task.Table.Data())
	// α2: removes T6 → Δ = 56.6̄−35 = 21.6̄, |p(g)| = 1.
	if got := s.OutlierInfluence(0, p); !almostEqual(got, 170.0/3-35) {
		t.Errorf("outlier 12PM influence = %v", got)
	}
	// α3: removes T9 → Δ = 50−35 = 15.
	if got := s.OutlierInfluence(1, p); !almostEqual(got, 15) {
		t.Errorf("outlier 1PM influence = %v", got)
	}
	// Hold-out 11AM: nothing matched → 0.
	if got := s.HoldOutInfluence(0, p); got != 0 {
		t.Errorf("hold-out influence = %v", got)
	}
	// Full objective: 0.5 · mean(21.6̄, 15) − 0.5 · 0.
	want := 0.5 * ((170.0/3 - 35) + 15) / 2
	if got := s.Influence(p); !almostEqual(got, want) {
		t.Errorf("Influence = %v, want %v", got, want)
	}
}

func TestHoldOutPenalty(t *testing.T) {
	task := paperTask(t)
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	// "sensorid = 3" removes a tuple from every group including the hold-out.
	col := task.Table.Schema().MustIndex("sensorid")
	code, ok := task.Table.Dict(col).Lookup("3")
	if !ok {
		t.Fatal("no sensorid 3")
	}
	p := predicate.MustNew(predicate.NewSetClause(col, "sensorid", []int32{code}))
	// Hold-out 11AM: removing T3 (35) changes avg 34.6̄ → 34.5, Δ=0.16̄.
	wantHold := 104.0/3 - 34.5
	if got := s.HoldOutInfluence(0, p); !almostEqual(got, wantHold) {
		t.Errorf("hold-out influence = %v, want %v", got, wantHold)
	}
	outMean := ((170.0/3 - 35) + 15) / 2
	want := 0.5*outMean - 0.5*math.Abs(wantHold)
	if got := s.Influence(p); !almostEqual(got, want) {
		t.Errorf("Influence = %v, want %v", got, want)
	}
	// The hold-out-free score must exceed the penalized score.
	if outlierMean(s, p) <= s.Influence(p) {
		t.Error("outliers-only influence should exceed penalized influence")
	}
}

func TestLambdaExtremes(t *testing.T) {
	task := paperTask(t)
	col := task.Table.Schema().MustIndex("sensorid")
	code, _ := task.Table.Dict(col).Lookup("3")
	p := predicate.MustNew(predicate.NewSetClause(col, "sensorid", []int32{code}))

	task.Lambda = 1 // ignore hold-outs entirely
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Influence(p), outlierMean(s, p); !almostEqual(got, want) {
		t.Errorf("λ=1: Influence = %v, want %v", got, want)
	}

	task.Lambda = 0 // only hold-out stability matters
	s, err = NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Influence(p); got >= 0 {
		t.Errorf("λ=0: Influence = %v, want negative (pure penalty)", got)
	}
}

func TestCKnob(t *testing.T) {
	task := paperTask(t)
	// Predicate matching both high-temp tuples AND normal ones: temp >= 35
	// matches T4,T5,T6 in the 12PM group (3 tuples).
	col := task.Table.Schema().MustIndex("humidity")
	p := predicate.MustNew(predicate.NewRangeClause(col, "humidity", 0.3, 0.55, true))
	// p matches all tuples of every group (humidity always in range) →
	// whole-group removal; AVG has no empty value → Δ = 0.
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Influence(p); got != 0 {
		t.Errorf("whole-group predicate influence = %v, want 0", got)
	}

	// c = 0 must equal raw Δ; larger c shrinks multi-tuple influence.
	volt := voltagePredicate(task.Table.Data())
	task0 := *task
	task0.C = 0
	s0, _ := NewScorer(&task0)
	task1 := *task
	task1.C = 1
	s1, _ := NewScorer(&task1)
	// voltage<2.4 matches exactly 1 tuple per outlier group → same score.
	if !almostEqual(s0.Influence(volt), s1.Influence(volt)) {
		t.Errorf("single-tuple predicate: c=0 %v != c=1 %v", s0.Influence(volt), s1.Influence(volt))
	}
	// humidity ∈ [0.4, 0.55] matches 2 tuples per outlier group (T5,T6 and
	// T8,T9) and the entire hold-out group (Δ=0 there) → the 2^c denominator
	// is the only difference between c values.
	wide := predicate.MustNew(predicate.NewRangeClause(col, "humidity", 0.4, 0.55, true))
	i0, i1 := s0.Influence(wide), s1.Influence(wide)
	if i0 <= i1 {
		t.Errorf("c=0 should score the 2-tuple predicate higher: %v vs %v", i0, i1)
	}
	if !almostEqual(i0, 2*i1) {
		t.Errorf("2-tuple predicate: c=0 score %v should be 2× c=1 score %v", i0, i1)
	}
}

func TestEmptyPredicateMatchesNothing(t *testing.T) {
	task := paperTask(t)
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	col := task.Table.Schema().MustIndex("voltage")
	p := predicate.MustNew(predicate.NewRangeClause(col, "voltage", 900, 1000, false))
	if got := s.Influence(p); got != 0 {
		t.Errorf("no-match predicate influence = %v, want 0", got)
	}
}

func TestCountStarTask(t *testing.T) {
	tbl := sensorsTable(t)
	q, err := query.FromSQL(tbl, "SELECT count(*), time FROM sensors GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	row, _ := res.Lookup("12PM")
	task := &Task{
		Table:    tbl,
		Agg:      aggregate.Count{},
		AggCol:   -1,
		Outliers: []Group{{Key: "12PM", Rows: row.Group, Direction: TooHigh}},
		Lambda:   0.5,
		C:        1,
	}
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	p := voltagePredicate(tbl)
	// COUNT removes 1 of 3 → Δ=1, |p(g)|=1 → influence 1; λ weight 0.5.
	if got := s.Influence(p); !almostEqual(got, 0.5) {
		t.Errorf("count influence = %v, want 0.5", got)
	}
}

func TestBlackBoxMatchesIncremental(t *testing.T) {
	task := paperTask(t)
	inc, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	// Same aggregate wrapped as a black-box UDA.
	black := *task
	black.Agg = aggregate.UDA{FuncName: "avg_udf", Fn: aggregate.Avg{}.Compute, IsIndependent: true}
	bb, err := NewScorer(&black)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Incremental() {
		t.Fatal("UDA must use the black-box path")
	}
	preds := []predicate.Predicate{
		voltagePredicate(task.Table.Data()),
		predicate.True(),
	}
	tempCol := task.Table.Schema().MustIndex("temp")
	preds = append(preds, predicate.MustNew(predicate.NewRangeClause(tempCol, "temp", 60, 200, true)))
	for _, p := range preds {
		a, b := inc.Influence(p), bb.Influence(p)
		// True() removes whole groups: AVG(∅) undefined → both paths yield 0.
		if !almostEqual(a, b) {
			t.Errorf("incremental %v != black-box %v for %v", a, b, p)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	base := paperTask(t)
	run := func(mutate func(*Task)) error {
		task := *base
		task.Outliers = append([]Group(nil), base.Outliers...)
		mutate(&task)
		_, err := NewScorer(&task)
		return err
	}
	if err := run(func(x *Task) { x.Table = nil }); err == nil {
		t.Error("nil table accepted")
	}
	if err := run(func(x *Task) { x.Agg = nil }); err == nil {
		t.Error("nil aggregate accepted")
	}
	if err := run(func(x *Task) { x.Outliers = nil }); err == nil {
		t.Error("empty outliers accepted")
	}
	if err := run(func(x *Task) { x.Lambda = 1.5 }); err == nil {
		t.Error("bad lambda accepted")
	}
	if err := run(func(x *Task) { x.C = -1 }); err == nil {
		t.Error("negative c accepted")
	}
	if err := run(func(x *Task) { x.Outliers[0].Direction = 0 }); err == nil {
		t.Error("missing error vector accepted")
	}
}

// TestNonFiniteKnobsRejected: every range check on λ and c must refuse NaN
// and ±Inf — a NaN fails "x < 0 || x > 1" and used to slip through, turning
// the whole ranking into NaN without an error.
func TestNonFiniteKnobsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name      string
		lambda, c float64
		ok        bool
	}{
		{"defaults", 0.5, 0.2, true},
		{"zero knobs", 0, 0, true},
		{"lambda one", 1, 3, true},
		{"lambda NaN", nan, 0.2, false},
		{"lambda +Inf", inf, 0.2, false},
		{"lambda -Inf", -inf, 0.2, false},
		{"c NaN", 0.5, nan, false},
		{"c +Inf", 0.5, inf, false},
		{"c -Inf", 0.5, -inf, false},
		{"c negative", 0.5, -0.1, false},
	}
	for _, tc := range cases {
		task := *paperTask(t)
		task.Lambda, task.C = tc.lambda, tc.c
		if err := task.Validate(); (err == nil) != tc.ok {
			t.Errorf("Validate(%s): err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if _, err := NewScorer(&task); (err == nil) != tc.ok {
			t.Errorf("NewScorer(%s): err = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	s, err := NewScorer(paperTask(t))
	if err != nil {
		t.Fatal(err)
	}
	before := s.Task().C
	for _, c := range []float64{nan, inf, -inf, -1} {
		if err := s.SetC(c); err == nil {
			t.Errorf("SetC(%v) accepted", c)
		}
	}
	if s.Task().C != before {
		t.Errorf("a refused SetC changed c to %v", s.Task().C)
	}
	if err := s.SetC(0.7); err != nil || s.Task().C != 0.7 {
		t.Errorf("SetC(0.7): err = %v, c = %v", err, s.Task().C)
	}
}

// TestScorerCallCounting: Influence memoizes nothing, so every call folds
// the predicate again and advances Calls by one per group.
func TestScorerCallCounting(t *testing.T) {
	task := paperTask(t)
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	p := voltagePredicate(task.Table.Data())
	groups := int64(len(task.Outliers) + len(task.HoldOuts))
	for i := int64(1); i <= 2; i++ {
		s.Influence(p)
		if got := s.Calls(); got != i*groups {
			t.Fatalf("after %d Influence calls Calls() = %d, want %d", i, got, i*groups)
		}
	}
}

// Property: for AVG over random groups, the incremental scorer and a
// black-box recomputation agree on random range predicates.
func TestIncrementalEqualsBlackBoxProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := relation.MustSchema(
			relation.Column{Name: "g", Kind: relation.Discrete},
			relation.Column{Name: "x", Kind: relation.Continuous},
			relation.Column{Name: "v", Kind: relation.Continuous},
		)
		b := relation.NewBuilder(schema)
		n := 20 + rng.Intn(60)
		for i := 0; i < n; i++ {
			b.MustAppend(relation.Row{
				relation.S([]string{"a", "b"}[rng.Intn(2)]),
				relation.F(rng.Float64() * 100),
				relation.F(rng.Float64()*50 - 10),
			})
		}
		tbl := b.Build()
		q, err := query.FromSQL(tbl, "SELECT avg(v), g FROM t GROUP BY g")
		if err != nil {
			return false
		}
		res, err := q.Run()
		if err != nil || len(res.Rows) < 2 {
			return true // degenerate draw; skip
		}
		task := &Task{
			Table:    tbl,
			Agg:      aggregate.Avg{},
			AggCol:   tbl.Schema().MustIndex("v"),
			Outliers: []Group{{Key: res.Rows[0].Key, Rows: res.Rows[0].Group, Direction: TooHigh}},
			HoldOuts: []Group{{Key: res.Rows[1].Key, Rows: res.Rows[1].Group}},
			Lambda:   0.5,
			C:        rng.Float64(),
		}
		inc, err := NewScorer(task)
		if err != nil {
			return false
		}
		blackTask := *task
		blackTask.Agg = aggregate.UDA{FuncName: "avg2", Fn: aggregate.Avg{}.Compute}
		bb, err := NewScorer(&blackTask)
		if err != nil {
			return false
		}
		xCol := tbl.Schema().MustIndex("x")
		for k := 0; k < 5; k++ {
			lo := rng.Float64() * 90
			hi := lo + rng.Float64()*30
			p := predicate.MustNew(predicate.NewRangeClause(xCol, "x", lo, hi, rng.Intn(2) == 0))
			if math.Abs(inc.Influence(p)-bb.Influence(p)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPartsDecomposition(t *testing.T) {
	task := paperTask(t)
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	col := task.Table.Schema().MustIndex("sensorid")
	code, _ := task.Table.Dict(col).Lookup("3")
	p := predicate.MustNew(predicate.NewSetClause(col, "sensorid", []int32{code}))
	outMean, holdPen := s.Parts(p)
	if got := s.Influence(p); !almostEqual(got, task.Lambda*outMean-(1-task.Lambda)*holdPen) {
		t.Errorf("Influence %v != λ·%v − (1−λ)·%v", got, outMean, holdPen)
	}
	if holdPen <= 0 {
		t.Errorf("hold-out penalty = %v, want positive (sensor 3 exists at 11AM)", holdPen)
	}
}

func TestTupleHoldOutInfluence(t *testing.T) {
	task := paperTask(t)
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	// Removing T1 (34) from the 11AM group: avg 34.6̄ → 35; Δ = −0.3̄.
	got := s.TupleHoldOutInfluence(0, 0)
	if !almostEqual(got, 104.0/3-35) {
		t.Errorf("TupleHoldOutInfluence(T1) = %v, want %v", got, 104.0/3-35)
	}
}

func TestBlackBoxTupleInfluence(t *testing.T) {
	task := paperTask(t)
	task.Agg = aggregate.UDA{FuncName: "avgbb", Fn: aggregate.Avg{}.Compute}
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TupleOutlierInfluence(0, 5); !almostEqual(got, 170.0/3-35) {
		t.Errorf("black-box inf(T6) = %v", got)
	}
	if got := s.TupleHoldOutInfluence(0, 0); !almostEqual(got, 104.0/3-35) {
		t.Errorf("black-box hold-out inf(T1) = %v", got)
	}
}

func TestOriginalResultAccessors(t *testing.T) {
	task := paperTask(t)
	s, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.OutlierResult(0); !almostEqual(got, 170.0/3) {
		t.Errorf("OutlierResult(0) = %v", got)
	}
	if got := s.HoldOutResult(0); !almostEqual(got, 104.0/3) {
		t.Errorf("HoldOutResult(0) = %v", got)
	}
	if s.Task() != task {
		t.Error("Task() identity lost")
	}
}

// TestScorerConcurrentUse hammers one shared Scorer from many goroutines
// (the parallel-search access pattern) and checks every concurrent result
// matches the serially computed value. Run under -race to verify the
// sharded cache and atomic call counter synchronize correctly.
func TestScorerConcurrentUse(t *testing.T) {
	task := paperTask(t)
	scorer, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	tbl := task.Table
	vCol := tbl.Schema().MustIndex("voltage")
	hCol := tbl.Schema().MustIndex("humidity")
	var preds []predicate.Predicate
	for i := 0; i < 16; i++ {
		lo := 2.2 + 0.05*float64(i%8)
		preds = append(preds, predicate.MustNew(
			predicate.NewRangeClause(vCol, "voltage", lo, lo+0.2, true)))
		preds = append(preds, predicate.MustNew(
			predicate.NewRangeClause(hCol, "humidity", 0.1*float64(i%5), 0.6, true)))
	}
	want := make([]float64, len(preds))
	serial, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		want[i] = serial.Influence(p)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				for i, p := range preds {
					if got := scorer.Influence(p); got != want[i] {
						errs <- p.Key()
						return
					}
					_, _ = scorer.Parts(p)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for key := range errs {
		t.Errorf("concurrent Influence(%s) diverged from serial value", key)
	}
	if scorer.Calls() == 0 {
		t.Error("Calls() = 0 after concurrent scoring")
	}
}

func TestSeededScorerMatchesPlainScorer(t *testing.T) {
	task := paperTask(t)
	plain, err := NewScorer(task)
	if err != nil {
		t.Fatal(err)
	}
	rem := task.Agg.(aggregate.Removable)
	// Build the states externally — as a stream tracker maintaining them
	// across append batches would — and seed a second scorer with them.
	states := func(groups []Group) []aggregate.State {
		out := make([]aggregate.State, len(groups))
		for i, g := range groups {
			var vals []float64
			g.Rows.ForEach(func(r int) { vals = append(vals, task.Value(r)) })
			out[i] = rem.State(vals)
		}
		return out
	}
	outStates, holdStates := states(task.Outliers), states(task.HoldOuts)
	seeded, err := NewScorerSeeded(task, outStates, holdStates)
	if err != nil {
		t.Fatal(err)
	}
	if !seeded.Incremental() {
		t.Fatal("seeded scorer must run the incremental path")
	}
	for i := range task.Outliers {
		if !almostEqual(seeded.OutlierResult(i), plain.OutlierResult(i)) {
			t.Fatalf("outlier %d orig %v != %v", i, seeded.OutlierResult(i), plain.OutlierResult(i))
		}
	}
	p := voltagePredicate(sensorsTable(t))
	if a, b := seeded.Influence(p), plain.Influence(p); !almostEqual(a, b) {
		t.Fatalf("seeded influence %v != plain %v", a, b)
	}
	if a, b := seeded.TupleOutlierInfluence(0, 5), plain.TupleOutlierInfluence(0, 5); !almostEqual(a, b) {
		t.Fatalf("seeded tuple influence %v != plain %v", a, b)
	}
	// Seeding copies: mutating the caller's state afterwards must not
	// perturb the scorer.
	outStates[0].Sum += 1000
	if a, b := seeded.OutlierResult(0), plain.OutlierResult(0); !almostEqual(a, b) {
		t.Fatalf("seeded scorer aliased caller state: %v != %v", a, b)
	}
}

func TestSeededScorerErrors(t *testing.T) {
	task := paperTask(t)
	rem := task.Agg.(aggregate.Removable)
	good := make([]aggregate.State, len(task.Outliers))
	for i := range good {
		good[i] = rem.State([]float64{1})
	}
	if _, err := NewScorerSeeded(task, good[:1], nil); err == nil {
		t.Fatal("state-count mismatch accepted")
	}
	black := *task
	black.Agg = aggregate.Median{}
	if _, err := NewScorerSeeded(&black, good, make([]aggregate.State, len(task.HoldOuts))); err == nil {
		t.Fatal("black-box aggregate accepted for seeding")
	}
}
