package scorpion

import (
	"reflect"
	"strings"
	"testing"

	"github.com/scorpiondb/scorpion/internal/shard"
)

// stubDispatcher is a ShardDispatcher that never dispatches.
type stubDispatcher struct{}

func (stubDispatcher) Remote(*Plan, Algorithm) shard.RemoteSearcher { return nil }

// TestPlanCoversRequest pins the answer-changing surface of a Request to
// its Plan: every exported field, set to a non-default value, must change
// Plan.Key or sit on the answer-neutral list below. A new Request field
// fails here until someone classifies it.
func TestPlanCoversRequest(t *testing.T) {
	neutral := map[string]string{
		"Table":            "keys carry the table's generation instead",
		"Workers":          "parallel searches return the serial answer",
		"OnProgress":       "observes the search, never steers it",
		"ProgressInterval": "observes the search, never steers it",
		"ShardDispatch":    "remote shard searches return the local answer",
	}
	base := Request{
		Table:    sensorsTable(t),
		SQL:      "SELECT avg(temp), time FROM sensors GROUP BY time",
		Outliers: []string{"12PM", "1PM"},
	}
	// Values for the fields whose kind alone does not give a usable one.
	special := map[string]any{
		"Table":         sensorsTable(t),
		"Direction":     TooLow,
		"Directions":    map[string]Direction{"12PM": TooLow},
		"OnProgress":    func(Progress) {},
		"ShardDispatch": stubDispatcher{},
	}
	nonDefault := func(f reflect.StructField) reflect.Value {
		if v, ok := special[f.Name]; ok {
			return reflect.ValueOf(v)
		}
		switch f.Type.Kind() {
		case reflect.String:
			return reflect.ValueOf("x").Convert(f.Type)
		case reflect.Slice:
			if f.Type.Elem().Kind() == reflect.String {
				return reflect.ValueOf([]string{"x"})
			}
		case reflect.Bool:
			return reflect.ValueOf(true)
		case reflect.Int, reflect.Int64:
			return reflect.ValueOf(3).Convert(f.Type)
		case reflect.Float64:
			return reflect.ValueOf(0.7).Convert(f.Type)
		}
		t.Fatalf("Request.%s (%s): no non-default value; classify the new field here", f.Name, f.Type)
		return reflect.Value{}
	}

	basePlan := mustPlan(t, &base)
	baseKey, baseSession := basePlan.Key("t"), basePlan.SessionKey("t")
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		req := base
		reflect.ValueOf(&req).Elem().Field(i).Set(nonDefault(f))
		p, err := req.Plan()
		if err != nil {
			t.Errorf("Request.%s: %v", f.Name, err)
			continue
		}
		key := p.Key("t")
		_, isNeutral := neutral[f.Name]
		switch {
		case isNeutral && key != baseKey:
			t.Errorf("Request.%s is listed answer-neutral but changes Plan.Key", f.Name)
		case isNeutral:
		case key == baseKey:
			t.Errorf("Request.%s leaves Plan.Key unchanged: encode it or list it as answer-neutral", f.Name)
		case (p.SessionKey("t") == baseSession) != (f.Name == "C"):
			t.Errorf("Request.%s: only C may share the session key of a different result key", f.Name)
		}
	}
}

// TestPlanWorkers: an unsharded DT or MC request runs on one goroutine, so
// its Plan holds one worker whatever it asks; NAIVE, Auto (whose algorithm
// is chosen later) and a sharded request keep the ask.
func TestPlanWorkers(t *testing.T) {
	for _, tc := range []struct {
		algo   Algorithm
		shards int
		want   int
	}{{DT, 1, 1}, {MC, 1, 1}, {Naive, 1, 4}, {Auto, 1, 4}, {DT, 3, 4}, {MC, 3, 4}} {
		req := Request{Table: sensorsTable(t), SQL: "SELECT sum(temp), time FROM sensors GROUP BY time",
			Outliers: []string{"12PM"}, Algorithm: tc.algo, Shards: tc.shards, Workers: 4}
		if got := mustPlan(t, &req).Workers(); got != tc.want {
			t.Errorf("%v over %d shards asking 4 workers: Plan.Workers() = %d, want %d", tc.algo, tc.shards, got, tc.want)
		}
	}
}

// TestTopKReachesEveryAlgorithm: a top-k above NAIVE's default retention
// of 10 reaches every algorithm, NAIVE included, which keeps the request's
// top-k candidates rather than its own 10.
func TestTopKReachesEveryAlgorithm(t *testing.T) {
	const topK = 20
	for _, algo := range []Algorithm{Naive, DT, MC} {
		req := synthRequest(t, "sum", 150)
		req.Algorithm, req.TopK, req.Shards = algo, topK, 1
		res, err := Explain(req)
		if err != nil {
			t.Fatal(err)
		}
		got := len(res.Explanations)
		if want := min(topK, res.Stats.Candidates); got != want {
			t.Errorf("%v: %d explanations of %d candidates, want %d", algo, got, res.Stats.Candidates, want)
		}
		if algo == Naive && got != topK {
			t.Errorf("NAIVE returned %d explanations, want %d", got, topK)
		}
	}
}

// TestPlanRejectsDuplicateLabels: a key listed twice among the outliers or
// the hold-outs is refused by name; a repeated outlier would otherwise
// weigh its group twice in the outlier mean.
func TestPlanRejectsDuplicateLabels(t *testing.T) {
	base := Request{
		Table: sensorsTable(t),
		SQL:   "SELECT avg(temp), time FROM sensors GROUP BY time",
	}
	for _, tc := range []struct {
		outliers, holdOuts []string
		want               string
	}{
		{[]string{"12PM", "1PM", "12PM"}, nil, `outlier "12PM" listed twice`},
		{[]string{"1PM", "1PM"}, nil, `outlier "1PM" listed twice`},
		{[]string{"12PM"}, []string{"11AM", "1PM", "11AM"}, `hold-out "11AM" listed twice`},
	} {
		req := base
		req.Outliers, req.HoldOuts = tc.outliers, tc.holdOuts
		if _, err := req.Plan(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("outliers %v, hold-outs %v: err = %v, want %q", tc.outliers, tc.holdOuts, err, tc.want)
		}
		if _, err := Explain(&req); err == nil {
			t.Errorf("outliers %v, hold-outs %v: Explain accepted", tc.outliers, tc.holdOuts)
		}
	}
	req := base
	req.Outliers, req.HoldOuts = []string{"12PM", "1PM"}, []string{"11AM"}
	if _, err := req.Plan(); err != nil {
		t.Errorf("distinct labels refused: %v", err)
	}
}
