// Package eval implements the paper's evaluation harness (§8): accuracy
// metrics against planted ground truth, task construction helpers, and the
// per-figure experiment runners that regenerate every table and figure of
// the evaluation section.
package eval

import (
	"fmt"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// Accuracy holds the §8.2 result-quality metrics of one predicate.
type Accuracy struct {
	Precision float64
	Recall    float64
	F1        float64
	// Matched is |p(g_O)|, the tuples the predicate selects from the
	// outlier input groups.
	Matched int
}

// Score compares p(g_O) against a ground-truth tuple set, both restricted
// to the union of outlier input groups (§8.2).
func Score(p predicate.Predicate, t *relation.Table, gO, truth *relation.RowSet) Accuracy {
	matched := p.Eval(t, gO)
	truthInGO := truth.Intersect(gO)
	hit := matched.Intersect(truthInGO).Count()
	acc := Accuracy{Matched: matched.Count()}
	if acc.Matched > 0 {
		acc.Precision = float64(hit) / float64(acc.Matched)
	}
	if n := truthInGO.Count(); n > 0 {
		acc.Recall = float64(hit) / float64(n)
	}
	if acc.Precision+acc.Recall > 0 {
		acc.F1 = 2 * acc.Precision * acc.Recall / (acc.Precision + acc.Recall)
	}
	return acc
}

// SynthTask binds a synthetic dataset into an influence task plus its
// search space. aggName is the SQL aggregate (the paper uses SUM for SYNTH);
// the outlier groups are flagged "too high".
func SynthTask(ds *synth.Dataset, aggName string, lambda, c float64) (*influence.Task, *predicate.Space, error) {
	sql := fmt.Sprintf("SELECT %s(v), g FROM synth GROUP BY g", aggName)
	q, err := query.FromSQL(ds.Table, sql)
	if err != nil {
		return nil, nil, err
	}
	res, err := q.Run()
	if err != nil {
		return nil, nil, err
	}
	task := &influence.Task{
		Table:  ds.Table,
		Agg:    q.Agg,
		AggCol: q.AggCol,
		Lambda: lambda,
		C:      c,
	}
	for _, key := range ds.OutlierKeys {
		row, ok := res.Lookup(key)
		if !ok {
			return nil, nil, fmt.Errorf("eval: missing outlier group %q", key)
		}
		task.Outliers = append(task.Outliers, influence.Group{
			Key: key, Rows: row.Group, Direction: influence.TooHigh,
		})
	}
	for _, key := range ds.HoldOutKeys {
		row, ok := res.Lookup(key)
		if !ok {
			return nil, nil, fmt.Errorf("eval: missing hold-out group %q", key)
		}
		task.HoldOuts = append(task.HoldOuts, influence.Group{Key: key, Rows: row.Group})
	}
	space, err := predicate.NewSpace(ds.Table, ds.DimNames(), nil)
	if err != nil {
		return nil, nil, err
	}
	return task, space, nil
}
