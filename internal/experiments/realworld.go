package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/datasets"
	"github.com/scorpiondb/scorpion/internal/eval"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// RealWorldRow is one (workload, c) result on a simulated real dataset.
type RealWorldRow struct {
	Workload  string
	C         float64
	Predicate string
	Acc       eval.Accuracy
	Elapsed   time.Duration
}

// IntelScale controls the INTEL simulator size.
type IntelScale struct {
	Hours, Sensors, EpochsPerHour int
	Seed                          int64
}

// QuickIntel is a CI-sized deployment.
func QuickIntel() IntelScale { return IntelScale{Hours: 33, Sensors: 20, EpochsPerHour: 2, Seed: 7} }

// PaperIntel approaches the deployment's 61 motes over two weeks.
func PaperIntel() IntelScale { return IntelScale{Hours: 336, Sensors: 61, EpochsPerHour: 6, Seed: 7} }

// IntelWorkload runs §8.4's INTEL workload (1 = dying sensor, 2 = battery
// decay) across a c sweep with the DT partitioner, as the paper does for
// STDDEV.
func IntelWorkload(n int, scale IntelScale, w io.Writer) ([]RealWorldRow, error) {
	ds := datasets.GenerateIntel(datasets.IntelConfig{
		Hours:         scale.Hours,
		Sensors:       scale.Sensors,
		EpochsPerHour: scale.EpochsPerHour,
		Workload:      datasets.IntelWorkload(n),
		Seed:          scale.Seed,
	})
	req := &scorpion.Request{
		Table:      ds.Table,
		SQL:        "SELECT stddev(temp), hour FROM readings GROUP BY hour",
		Outliers:   ds.OutlierHours,
		HoldOuts:   ds.HoldOutHours,
		Direction:  scorpion.TooHigh,
		Attributes: []string{"sensorid", "voltage", "humidity", "light"},
		Algorithm:  scorpion.DT,
		Shards:     1,
	}
	rows, err := realWorldSweep(fmt.Sprintf("INTEL#%d", n), req, []float64{1, 0.5, 0.2, 0.1, 0}, ds.TruthRows)
	if err != nil {
		return nil, err
	}
	Section(w, "§8.4 INTEL workload %d (sensor %s, %d outlier hours, %d hold-outs)",
		n, ds.FailingSensor, len(ds.OutlierHours), len(ds.HoldOutHours))
	writeRealWorld(w, rows)
	return rows, nil
}

// ExpenseScale controls the EXPENSE simulator size.
type ExpenseScale struct {
	Days, RowsPerDay, Recipients int
	Seed                         int64
}

// QuickExpense is a CI-sized ledger.
func QuickExpense() ExpenseScale {
	return ExpenseScale{Days: 34, RowsPerDay: 80, Recipients: 150, Seed: 5}
}

// PaperExpense approaches the FEC file's 116k rows.
func PaperExpense() ExpenseScale {
	return ExpenseScale{Days: 540, RowsPerDay: 215, Recipients: 2000, Seed: 5}
}

// ExpenseWorkload runs §8.4's EXPENSE workload (SUM of Obama's daily
// disbursements, MC algorithm) across a c sweep.
func ExpenseWorkload(scale ExpenseScale, w io.Writer) ([]RealWorldRow, error) {
	ds := datasets.GenerateExpense(datasets.ExpenseConfig{
		Days:       scale.Days,
		RowsPerDay: scale.RowsPerDay,
		Recipients: scale.Recipients,
		Seed:       scale.Seed,
	})
	req := &scorpion.Request{
		Table:     ds.Table,
		SQL:       "SELECT sum(disb_amt), date FROM expenses WHERE candidate = 'Obama' GROUP BY date",
		Outliers:  ds.OutlierDays,
		HoldOuts:  ds.HoldOutDays,
		Direction: scorpion.TooHigh,
		Attributes: []string{"recipient_nm", "recipient_st", "recipient_city", "zip",
			"organization_tp", "disb_desc", "file_num", "election_tp", "category",
			"payee_tp", "memo"},
		Algorithm: scorpion.MC,
		Shards:    1,
	}
	rows, err := realWorldSweep("EXPENSE", req, []float64{1, 0.5, 0.2, 0.1, 0.05}, ds.TruthRows)
	if err != nil {
		return nil, err
	}
	Section(w, "§8.4 EXPENSE workload (%d outlier days, %d hold-outs)",
		len(ds.OutlierDays), len(ds.HoldOutDays))
	writeRealWorld(w, rows)
	return rows, nil
}

// realWorldSweep explains req at λ = 0.5 and each c, scoring each top
// predicate against the planted truth.
func realWorldSweep(workload string, req *scorpion.Request, cs []float64, truth *relation.RowSet) ([]RealWorldRow, error) {
	req.SetLambda(0.5)
	var rows []RealWorldRow
	for _, c := range cs {
		req.SetC(c)
		res, err := explain(context.Background(), req)
		if err != nil {
			return nil, fmt.Errorf("eval: %s at c=%v: %w", workload, c, err)
		}
		best := res.Explanations[0].Predicate
		rows = append(rows, RealWorldRow{
			Workload:  workload,
			C:         c,
			Predicate: best.Format(req.Table),
			Acc:       eval.Score(best, req.Table, res.OutlierRows(), truth),
			Elapsed:   res.Stats.Duration,
		})
	}
	return rows, nil
}

func writeRealWorld(w io.Writer, rows []RealWorldRow) {
	tbl := NewTextTable("workload", "c", "F1", "precision", "recall", "seconds", "predicate")
	for _, r := range rows {
		tbl.AddRow(r.Workload, r.C, r.Acc.F1, r.Acc.Precision, r.Acc.Recall,
			r.Elapsed.Seconds(), r.Predicate)
	}
	tbl.Render(w)
}

// RunningExample reproduces Tables 1 and 2: it executes Q1 over the
// paper's nine sensor readings, prints both tables, and explains the 12PM
// and 1PM outliers.
func RunningExample(w io.Writer) (string, error) {
	tbl := runningExampleTable()
	req := &scorpion.Request{
		Table:      tbl,
		SQL:        "SELECT avg(temp), time FROM sensors GROUP BY time",
		Outliers:   []string{"12PM", "1PM"},
		HoldOuts:   []string{"11AM"},
		Direction:  scorpion.TooHigh,
		Attributes: []string{"sensorid", "voltage", "humidity"},
		Algorithm:  scorpion.DT,
		Shards:     1,
	}
	req.SetLambda(0.5)
	req.SetC(1)
	res, err := explain(context.Background(), req)
	if err != nil {
		return "", err
	}

	Section(w, "Table 1: sensors")
	t1 := NewTextTable("tuple", "time", "sensorid", "voltage", "humidity", "temp")
	for r := 0; r < tbl.NumRows(); r++ {
		row := tbl.Row(r)
		t1.AddRow(fmt.Sprintf("T%d", r+1), row[0].Str(), row[1].Str(),
			row[2].Float(), row[3].Float(), row[4].Float())
	}
	t1.Render(w)

	Section(w, "Table 2: Q1 results and annotations")
	t2 := NewTextTable("result", "time", "avg(temp)", "label", "v")
	for i, row := range res.QueryResult.Rows {
		label, v := "Hold-out", "-"
		if row.Key == "12PM" || row.Key == "1PM" {
			label, v = "Outlier", "<+1>"
		}
		t2.AddRow(fmt.Sprintf("α%d", i+1), row.Key, row.Value, label, v)
	}
	t2.Render(w)

	best := res.Explanations[0]
	if w != nil {
		fmt.Fprintf(w, "\nExplanation for {12PM, 1PM} too-high: %s (influence %.3f)\n",
			best.Where, best.Influence)
	}
	return best.Where, nil
}

func runningExampleTable() *relation.Table {
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
