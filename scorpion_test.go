package scorpion

import (
	"strings"
	"testing"

	"github.com/scorpiondb/scorpion/internal/datasets"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// sensorsTable builds the paper's Table 1 running example.
func sensorsTable(t testing.TB) *Table {
	t.Helper()
	schema, err := NewSchema(
		Column{Name: "time", Kind: Discrete},
		Column{Name: "sensorid", Kind: Discrete},
		Column{Name: "voltage", Kind: Continuous},
		Column{Name: "humidity", Kind: Continuous},
		Column{Name: "temp", Kind: Continuous},
	)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(schema)
	rows := []Row{
		{S("11AM"), S("1"), F(2.64), F(0.4), F(34)},
		{S("11AM"), S("2"), F(2.65), F(0.5), F(35)},
		{S("11AM"), S("3"), F(2.63), F(0.4), F(35)},
		{S("12PM"), S("1"), F(2.7), F(0.3), F(35)},
		{S("12PM"), S("2"), F(2.7), F(0.5), F(35)},
		{S("12PM"), S("3"), F(2.3), F(0.4), F(100)},
		{S("1PM"), S("1"), F(2.7), F(0.3), F(35)},
		{S("1PM"), S("2"), F(2.7), F(0.5), F(35)},
		{S("1PM"), S("3"), F(2.3), F(0.5), F(80)},
	}
	for _, r := range rows {
		b.MustAppend(r)
	}
	return b.Build()
}

// TestRunningExample reproduces the paper's Tables 1 and 2: the 12PM and
// 1PM averages are flagged too high with 11AM as hold-out, and Scorpion
// must blame sensor 3 (equivalently, its low voltage).
func TestRunningExample(t *testing.T) {
	res, err := Explain(&Request{
		Table:            sensorsTable(t),
		SQL:              "SELECT avg(temp), time FROM sensors GROUP BY time",
		Outliers:         []string{"12PM", "1PM"},
		AllOthersHoldOut: true,
		Direction:        TooHigh,
		C:                1,
	})
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	if len(res.Explanations) == 0 {
		t.Fatal("no explanations")
	}
	top := res.Explanations[0]
	if top.Influence <= 0 {
		t.Fatalf("top influence = %v", top.Influence)
	}
	// The culprit readings are T6 and T9 (sensor 3 / low voltage). Either
	// attribution is correct.
	if !strings.Contains(top.Where, "sensorid in ('3')") &&
		!strings.Contains(top.Where, "voltage") {
		t.Errorf("top explanation %q does not implicate sensor 3 or voltage", top.Where)
	}
	if top.MatchedOutlierTuples == 0 {
		t.Error("top explanation matches no outlier tuples")
	}
	// Query result must expose Table 2's values.
	row, ok := res.QueryResult.Lookup("12PM")
	if !ok || row.Value < 56 || row.Value > 57 {
		t.Errorf("12PM avg = %+v, want ≈ 56.67", row)
	}
}

func TestExplainAlgorithmAutoSelection(t *testing.T) {
	tbl := sensorsTable(t)
	base := Request{
		Table:            tbl,
		Outliers:         []string{"12PM", "1PM"},
		AllOthersHoldOut: true,
		Direction:        TooHigh,
	}
	cases := []struct {
		sql  string
		want Algorithm
	}{
		{"SELECT avg(temp), time FROM s GROUP BY time", DT},       // independent, not AM
		{"SELECT sum(temp), time FROM s GROUP BY time", MC},       // independent + AM (non-negative)
		{"SELECT count(*), time FROM s GROUP BY time", MC},        // always AM
		{"SELECT median(temp), time FROM s GROUP BY time", Naive}, // black box
	}
	for _, tc := range cases {
		req := base
		req.SQL = tc.sql
		res, err := Explain(&req)
		if err != nil {
			t.Fatalf("Explain(%q): %v", tc.sql, err)
		}
		if res.Stats.Algorithm != tc.want {
			t.Errorf("%q chose %v, want %v", tc.sql, res.Stats.Algorithm, tc.want)
		}
	}
}

func TestExplainForcedAlgorithmValidation(t *testing.T) {
	tbl := sensorsTable(t)
	req := Request{
		Table:     tbl,
		SQL:       "SELECT median(temp), time FROM s GROUP BY time",
		Outliers:  []string{"12PM"},
		Direction: TooHigh,
		Algorithm: DT,
	}
	if _, err := Explain(&req); err == nil {
		t.Error("DT over median should fail")
	}
	req.Algorithm = MC
	if _, err := Explain(&req); err == nil {
		t.Error("MC over median should fail")
	}
}

func TestExplainRequestValidation(t *testing.T) {
	tbl := sensorsTable(t)
	cases := []Request{
		{},           // no table
		{Table: tbl}, // no SQL
		{Table: tbl, SQL: "SELECT avg(temp), time FROM s GROUP BY time"}, // no outliers
		{Table: tbl, SQL: "SELECT avg(temp), time FROM s GROUP BY time",
			Outliers: []string{"9AM"}, Direction: TooHigh}, // unknown group
		{Table: tbl, SQL: "SELECT avg(temp), time FROM s GROUP BY time",
			Outliers: []string{"12PM"}, HoldOuts: []string{"12PM"}, Direction: TooHigh}, // overlap
		{Table: tbl, SQL: "nonsense", Outliers: []string{"12PM"}, Direction: TooHigh},
	}
	for i, req := range cases {
		if _, err := Explain(&req); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestExplainPerKeyDirections(t *testing.T) {
	tbl := sensorsTable(t)
	res, err := Explain(&Request{
		Table:    tbl,
		SQL:      "SELECT avg(temp), time FROM s GROUP BY time",
		Outliers: []string{"12PM", "1PM"},
		Directions: map[string]Direction{
			"12PM": TooHigh,
			"1PM":  TooHigh,
		},
		AllOthersHoldOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) == 0 {
		t.Fatal("no explanations")
	}
}

func TestExplainSynthEndToEnd(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 200, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 17,
	})
	res, err := Explain(&Request{
		Table:            ds.Table,
		SQL:              "SELECT sum(v), g FROM synth GROUP BY g",
		Outliers:         ds.OutlierKeys,
		AllOthersHoldOut: true,
		Direction:        TooHigh,
		C:                0.2,
		Attributes:       ds.DimNames(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Algorithm != MC {
		t.Errorf("algorithm = %v, want MC", res.Stats.Algorithm)
	}
	if len(res.Explanations) == 0 || res.Explanations[0].Influence <= 0 {
		t.Fatal("no positive-influence explanation")
	}
}

func TestExplainIntelWorkload(t *testing.T) {
	ds := datasets.GenerateIntel(datasets.IntelConfig{
		Hours: 30, Sensors: 20, EpochsPerHour: 2, Seed: 2,
	})
	res, err := Explain(&Request{
		Table:      ds.Table,
		SQL:        "SELECT stddev(temp), hour FROM readings GROUP BY hour",
		Outliers:   ds.OutlierHours,
		HoldOuts:   ds.HoldOutHours,
		Direction:  TooHigh,
		C:          0.2,
		Attributes: []string{"sensorid", "voltage", "humidity", "light"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Algorithm != DT {
		t.Errorf("algorithm = %v, want DT (stddev)", res.Stats.Algorithm)
	}
	top := res.Explanations[0]
	if !strings.Contains(top.Where, "'"+ds.FailingSensor+"'") &&
		!strings.Contains(top.Where, "voltage") {
		t.Errorf("top explanation %q does not implicate sensor %s", top.Where, ds.FailingSensor)
	}
}

func TestExplainerCachedSweep(t *testing.T) {
	ds := synth.Generate(synth.Config{
		Dims: 2, TuplesPerGroup: 200, Groups: 6, OutlierGroups: 3, Mu: 80, Seed: 23,
	})
	req := &Request{
		Table:            ds.Table,
		SQL:              "SELECT avg(v), g FROM synth GROUP BY g",
		Outliers:         ds.OutlierKeys,
		AllOthersHoldOut: true,
		Direction:        TooHigh,
		Attributes:       ds.DimNames(),
	}
	e, err := NewExplainer(req)
	if err != nil {
		t.Fatal(err)
	}
	var prev *Result
	for _, c := range []float64{0.5, 0.3, 0.1} {
		res, err := e.ExplainC(c)
		if err != nil {
			t.Fatalf("ExplainC(%v): %v", c, err)
		}
		if len(res.Explanations) == 0 {
			t.Fatalf("c=%v: no explanations", c)
		}
		prev = res
	}
	_ = prev
	// Cached sweep must agree with a fresh run at the same c on the top
	// explanation's influence within a reasonable factor.
	fresh, err := Explain(&Request{
		Table:            ds.Table,
		SQL:              "SELECT avg(v), g FROM synth GROUP BY g",
		Outliers:         ds.OutlierKeys,
		AllOthersHoldOut: true,
		Direction:        TooHigh,
		Attributes:       ds.DimNames(),
		C:                0.1,
		Algorithm:        DT,
	})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := e.ExplainC(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Explanations[0].Influence < 0.5*fresh.Explanations[0].Influence {
		t.Errorf("cached sweep influence %v far below fresh %v",
			cached.Explanations[0].Influence, fresh.Explanations[0].Influence)
	}
	if e, err = NewExplainer(req); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExplainC(0.2); err != nil {
		t.Fatalf("after invalidate: %v", err)
	}
}

func TestExplainerRejectsBlackBox(t *testing.T) {
	tbl := sensorsTable(t)
	_, err := NewExplainer(&Request{
		Table:     tbl,
		SQL:       "SELECT median(temp), time FROM s GROUP BY time",
		Outliers:  []string{"12PM"},
		Direction: TooHigh,
	})
	if err == nil {
		t.Error("Explainer over median should fail")
	}
}

func TestAlgorithmString(t *testing.T) {
	for algo, want := range map[Algorithm]string{
		Auto: "auto", Naive: "naive", DT: "dt", MC: "mc",
	} {
		if algo.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(algo), algo.String(), want)
		}
	}
}
