package relation

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// sensorsSchema mirrors Table 1 of the paper.
func sensorsSchema() *Schema {
	return MustSchema(
		Column{Name: "time", Kind: Discrete},
		Column{Name: "sensorid", Kind: Discrete},
		Column{Name: "voltage", Kind: Continuous},
		Column{Name: "humidity", Kind: Continuous},
		Column{Name: "temp", Kind: Continuous},
	)
}

// sensorsTable builds the 9-row running example from Table 1.
func sensorsTable(t *testing.T) *Table {
	t.Helper()
	b := NewBuilder(sensorsSchema())
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
		if err := b.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	return b.Build()
}

func TestBuilderAndAccessors(t *testing.T) {
	tbl := sensorsTable(t)
	if tbl.NumRows() != 9 {
		t.Fatalf("NumRows = %d, want 9", tbl.NumRows())
	}
	tempCol := tbl.Schema().MustIndex("temp")
	if got := tbl.Float(tempCol, 5); got != 100 {
		t.Errorf("Float(temp,5) = %v, want 100", got)
	}
	timeCol := tbl.Schema().MustIndex("time")
	if got := tbl.Str(timeCol, 0); got != "11AM" {
		t.Errorf("Str(time,0) = %q, want 11AM", got)
	}
	if tbl.Dict(timeCol).Len() != 3 {
		t.Errorf("time dictionary has %d values, want 3", tbl.Dict(timeCol).Len())
	}
	row := tbl.Row(5)
	if row[0].Str() != "12PM" || row[4].Float() != 100 {
		t.Errorf("Row(5) = %v", row)
	}
	if v := tbl.Value(tempCol, 8); v.Float() != 80 {
		t.Errorf("Value(temp,8) = %v", v)
	}
}

func TestBuilderRejectsBadRows(t *testing.T) {
	b := NewBuilder(sensorsSchema())
	if err := b.Append(Row{S("11AM")}); err == nil {
		t.Error("expected arity error")
	}
	if err := b.Append(Row{F(1), S("1"), F(2.64), F(0.4), F(34)}); err == nil {
		t.Error("expected kind error")
	}
	if b.NumRows() != 0 {
		t.Errorf("failed appends changed row count to %d", b.NumRows())
	}
}

func TestTableKindPanics(t *testing.T) {
	tbl := sensorsTable(t)
	timeCol := tbl.Schema().MustIndex("time")
	tempCol := tbl.Schema().MustIndex("temp")
	for name, fn := range map[string]func(){
		"FloatsOnDiscrete": func() { tbl.Floats(timeCol) },
		"CodesOnCont":      func() { tbl.Codes(tempCol) },
		"DictOnCont":       func() { tbl.Dict(tempCol) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		})
	}
}

func TestFloatStats(t *testing.T) {
	tbl := sensorsTable(t)
	tempCol := tbl.Schema().MustIndex("temp")
	st := tbl.FloatStats(tempCol, nil)
	if st.Min != 34 || st.Max != 100 || st.Count != 9 {
		t.Errorf("FloatStats(all) = %+v", st)
	}
	st = tbl.FloatStats(tempCol, RowSetOf(9, 0, 1, 2))
	if st.Min != 34 || st.Max != 35 || st.Count != 3 {
		t.Errorf("FloatStats(11AM rows) = %+v", st)
	}
}

func TestFloatStatsSkipsNaN(t *testing.T) {
	s := MustSchema(Column{Name: "x", Kind: Continuous})
	b := NewBuilder(s)
	b.MustAppend(Row{F(1)})
	b.MustAppend(Row{F(math.NaN())})
	b.MustAppend(Row{F(3)})
	st := b.Build().FloatStats(0, nil)
	if st.Count != 2 || st.Min != 1 || st.Max != 3 {
		t.Errorf("stats with NaN = %+v", st)
	}
}

func TestDistinctCodes(t *testing.T) {
	tbl := sensorsTable(t)
	sidCol := tbl.Schema().MustIndex("sensorid")
	all := tbl.DistinctCodes(sidCol, nil)
	if len(all) != 3 {
		t.Fatalf("distinct sensorids = %d, want 3", len(all))
	}
	some := tbl.DistinctCodes(sidCol, RowSetOf(9, 0, 3, 6)) // all sensor "1"
	if len(some) != 1 || tbl.Dict(sidCol).Value(some[0]) != "1" {
		t.Errorf("DistinctCodes over sensor-1 rows = %v", some)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl := sensorsTable(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tbl); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf, CSVOptions{Kinds: map[string]Kind{
		"time": Discrete, "sensorid": Discrete,
	}})
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if !got.Schema().Equal(tbl.Schema()) {
		t.Fatalf("schema mismatch: %v vs %v", got.Schema(), tbl.Schema())
	}
	if got.NumRows() != tbl.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), tbl.NumRows())
	}
	for r := 0; r < tbl.NumRows(); r++ {
		for c := 0; c < tbl.Schema().NumColumns(); c++ {
			if got.Value(c, r).String() != tbl.Value(c, r).String() {
				t.Fatalf("cell (%d,%d) = %v, want %v", c, r, got.Value(c, r), tbl.Value(c, r))
			}
		}
	}
}

func TestCSVTypeInference(t *testing.T) {
	in := "a,b,c\n1,x,3.5\n2,y,4.5\n"
	tbl, err := ReadCSV(strings.NewReader(in), CSVOptions{})
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	want := []Kind{Continuous, Discrete, Continuous}
	for i, k := range want {
		if tbl.Schema().Column(i).Kind != k {
			t.Errorf("column %d kind = %v, want %v", i, tbl.Schema().Column(i).Kind, k)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), CSVOptions{}); err == nil {
		t.Error("empty input: expected error")
	}
	// Forced continuous column with a non-numeric value.
	_, err := ReadCSV(strings.NewReader("a\nxyz\n"), CSVOptions{Kinds: map[string]Kind{"a": Continuous}})
	if err == nil {
		t.Error("unparseable forced-continuous value: expected error")
	}
}

func TestCSVHeaderOnly(t *testing.T) {
	tbl, err := ReadCSV(strings.NewReader("a,b\n"), CSVOptions{})
	if err != nil {
		t.Fatalf("header-only csv: %v", err)
	}
	if tbl.NumRows() != 0 {
		t.Fatalf("rows = %d, want 0", tbl.NumRows())
	}
}
