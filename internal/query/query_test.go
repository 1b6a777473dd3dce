package query

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

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

func TestRunQ1MatchesTable2(t *testing.T) {
	tbl := sensorsTable(t)
	q, err := FromSQL(tbl, "SELECT avg(temp), time FROM sensors GROUP BY time")
	if err != nil {
		t.Fatalf("FromSQL: %v", err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	// Table 2 of the paper: α1=34.6̄ (11AM), α2=56.6̄ (12PM), α3=50 (1PM).
	want := map[string]float64{
		"11AM": 104.0 / 3,
		"12PM": 170.0 / 3,
		"1PM":  50,
	}
	for key, w := range want {
		row, ok := res.Lookup(key)
		if !ok {
			t.Fatalf("missing group %q", key)
		}
		if math.Abs(row.Value-w) > 1e-9 {
			t.Errorf("avg(%s) = %v, want %v", key, row.Value, w)
		}
		if row.Group.Count() != 3 {
			t.Errorf("group %q has %d input tuples, want 3", key, row.Group.Count())
		}
	}
	// Provenance: the 12PM group must be exactly rows 3,4,5.
	row, _ := res.Lookup("12PM")
	if got := row.Group.Rows(); len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Errorf("12PM provenance = %v, want [3 4 5]", got)
	}
}

func TestRestAttributes(t *testing.T) {
	tbl := sensorsTable(t)
	q, err := FromSQL(tbl, "SELECT avg(temp), time FROM sensors GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	rest := q.RestAttributes()
	want := []string{"sensorid", "voltage", "humidity"}
	if len(rest) != len(want) {
		t.Fatalf("RestAttributes = %v, want %v", rest, want)
	}
	for i := range want {
		if rest[i] != want[i] {
			t.Fatalf("RestAttributes = %v, want %v", rest, want)
		}
	}
}

func TestWhereFilter(t *testing.T) {
	tbl := sensorsTable(t)
	q, err := FromSQL(tbl, "SELECT avg(temp), time FROM sensors WHERE sensorid != '3' GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	row, ok := res.Lookup("12PM")
	if !ok {
		t.Fatal("missing 12PM")
	}
	if row.Value != 35 {
		t.Errorf("avg without sensor 3 = %v, want 35", row.Value)
	}
	if row.Group.Count() != 2 {
		t.Errorf("group size = %d, want 2", row.Group.Count())
	}
}

func TestWhereRangeOnContinuous(t *testing.T) {
	tbl := sensorsTable(t)
	q, err := FromSQL(tbl, "SELECT count(*), time FROM sensors WHERE voltage < 2.5 GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Only T6 (12PM) and T9 (1PM) have voltage < 2.5; 11AM group is absent.
	if _, ok := res.Lookup("11AM"); ok {
		t.Error("11AM group should be filtered out entirely")
	}
	for _, key := range []string{"12PM", "1PM"} {
		row, ok := res.Lookup(key)
		if !ok || row.Value != 1 {
			t.Errorf("count(%s) = %v, want 1", key, row.Value)
		}
	}
}

func TestWhereInAndOrNot(t *testing.T) {
	tbl := sensorsTable(t)
	q, err := FromSQL(tbl,
		"SELECT count(*), time FROM sensors WHERE sensorid IN ('1','2') AND NOT (voltage > 2.69) GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Sensors 1,2 with voltage <= 2.69: rows T1 (2.64), T2 (2.65) at 11AM.
	row, ok := res.Lookup("11AM")
	if !ok || row.Value != 2 {
		t.Fatalf("count(11AM) = %+v, want 2", row)
	}
	if len(res.Rows) != 1 {
		t.Errorf("groups = %d, want 1", len(res.Rows))
	}
}

func TestCountStar(t *testing.T) {
	tbl := sensorsTable(t)
	q, err := FromSQL(tbl, "SELECT count(*), time FROM sensors GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Value != 3 {
			t.Errorf("count(%s) = %v, want 3", row.Key, row.Value)
		}
	}
}

func TestMultiColumnGroupBy(t *testing.T) {
	tbl := sensorsTable(t)
	q, err := FromSQL(tbl, "SELECT avg(temp), time, sensorid FROM sensors GROUP BY time, sensorid")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("groups = %d, want 9", len(res.Rows))
	}
	key := GroupKey([]relation.Value{relation.S("12PM"), relation.S("3")})
	row, ok := res.Lookup(key)
	if !ok || row.Value != 100 {
		t.Errorf("avg(12PM,3) = %+v", row)
	}
}

func TestBindErrors(t *testing.T) {
	tbl := sensorsTable(t)
	cases := []string{
		"SELECT avg(nope), time FROM s GROUP BY time",         // unknown agg col
		"SELECT avg(time), sensorid FROM s GROUP BY sensorid", // discrete agg col
		"SELECT avg(temp), nope FROM s GROUP BY nope",         // unknown group col
		"SELECT avg(temp) FROM s GROUP BY time, time",         // duplicate group col
		"SELECT avg(temp) FROM s GROUP BY temp",               // agg col grouped
		"SELECT median(*) FROM s GROUP BY time",               // star on non-count
		"SELECT bogus(temp) FROM s GROUP BY time",             // unknown aggregate
	}
	for _, sql := range cases {
		if _, err := FromSQL(tbl, sql); err == nil {
			t.Errorf("FromSQL(%q): expected error", sql)
		}
	}
}

func TestWhereCompileErrors(t *testing.T) {
	tbl := sensorsTable(t)
	cases := []string{
		"SELECT avg(temp), time FROM s WHERE nope = 1 GROUP BY time",       // unknown col
		"SELECT avg(temp), time FROM s WHERE voltage = 'x' GROUP BY time",  // non-numeric on continuous
		"SELECT avg(temp), time FROM s WHERE sensorid < '3' GROUP BY time", // range on discrete
		"SELECT avg(temp), time FROM s WHERE voltage IN ('a') GROUP BY time",
	}
	for _, sql := range cases {
		if _, err := FromSQL(tbl, sql); err == nil {
			t.Errorf("FromSQL(%q): expected error", sql)
		}
	}
}

func TestWhereEqualityUnknownDiscreteValue(t *testing.T) {
	tbl := sensorsTable(t)
	q, err := FromSQL(tbl, "SELECT count(*), time FROM s WHERE sensorid = '99' GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("groups = %d, want 0 for value absent from dictionary", len(res.Rows))
	}
	// != of an absent value matches everything.
	q, err = FromSQL(tbl, "SELECT count(*), time FROM s WHERE sensorid != '99' GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	res, err = q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("groups = %d, want 3", len(res.Rows))
	}
}

func TestResultOrderingNumericAware(t *testing.T) {
	schema := relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.Discrete},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	b := relation.NewBuilder(schema)
	for _, g := range []string{"10", "2", "1", "30", "3"} {
		b.MustAppend(relation.Row{relation.S(g), relation.F(1)})
	}
	tbl := b.Build()
	q, err := FromSQL(tbl, "SELECT sum(v), g FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := res.Keys()
	want := []string{"1", "2", "3", "10", "30"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys() = %v, want %v", got, want)
		}
	}
}

// TestResultOrderIsTotal: NewResult's group order is a total order, so the
// order the rows arrive in — a tracker's map, a table's row order — cannot
// show through. Every shuffle of the rows sorts to the same keys, a NaN key
// sorts after every number, ties (−0 and +0, "1" and "1.0") order by their
// raw Key, and the order equals lessKeyValues's, the order before,
// wherever that was strict. A discrete column that mixes numbers with other
// strings has no such order to agree with (lessKeyValues cycles on it):
// there numbers sort first, and each kind keeps lessKeyValues's order.
func TestResultOrderIsTotal(t *testing.T) {
	F, S := relation.F, relation.S
	nan, inf := math.NaN(), math.Inf(1)
	keyed := func(keys ...[]relation.Value) []ResultRow {
		rows := make([]ResultRow, len(keys))
		for i, k := range keys {
			rows[i] = ResultRow{Key: GroupKey(k), KeyValues: k}
		}
		return rows
	}
	var cont, nums, words, pairs, mixed [][]relation.Value
	for _, f := range []float64{nan, 3, 1.5, -2, 0, math.Copysign(0, -1), inf, -inf, 1e300} {
		cont = append(cont, []relation.Value{F(f)})
	}
	for _, d := range []string{"1", "1.0", "01", "NaN", "nan", "inf", "-Inf", "-2", "10", "9", "0x1p4", ".5", "+3", "1_0"} {
		nums = append(nums, []relation.Value{S(d)})
	}
	for _, d := range []string{"g7", "g10", "x", "", "1e400", "-x", "Apple", "_1", "+nan", "0x10"} {
		words = append(words, []relation.Value{S(d)})
	}
	for _, d := range []string{"1", "1.0", "a", "b"} {
		for _, f := range []float64{nan, 2, 0, math.Copysign(0, -1), -1} {
			pairs = append(pairs, []relation.Value{S(d), F(f)}, []relation.Value{F(f), S(d)})
		}
	}
	mixed = append(append(mixed, nums...), words...)
	rng := rand.New(rand.NewSource(1))
	order := func(rows []ResultRow) []string {
		want := NewResult(nil, slices.Clone(rows)).Keys()
		for p := 0; p < 50; p++ {
			shuffled := slices.Clone(rows)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := NewResult(nil, shuffled).Keys(); !slices.Equal(got, want) {
				t.Fatalf("shuffle %d sorts to %q, the first sort to %q", p, got, want)
			}
		}
		return want
	}
	isNum := func(v relation.Value) bool {
		if v.Kind() == relation.Continuous {
			return true
		}
		_, err := strconv.ParseFloat(v.Str(), 64)
		return err == nil
	}
	for name, keys := range map[string][][]relation.Value{"continuous": cont, "numbers": nums, "words": words, "pairs": pairs, "mixed": mixed} {
		rows := keyed(keys...)
		res := NewResult(nil, keyed(keys...))
		got := order(rows)
		at := make(map[string]int, len(got))
		for i, k := range got {
			at[k] = i
		}
		for _, a := range rows {
			for _, b := range rows {
				if !lessKeyValues(a.KeyValues, b.KeyValues) {
					continue
				}
				// In the mixed column lessKeyValues is strict across kinds
				// in both directions somewhere; compare within a kind only.
				if name == "mixed" && isNum(a.KeyValues[0]) != isNum(b.KeyValues[0]) {
					continue
				}
				if at[a.Key] > at[b.Key] {
					t.Fatalf("%s: lessKeyValues puts %q before %q, the order %q", name, a.Key, b.Key, got)
				}
			}
		}
		for i := 1; i < len(res.Rows); i++ {
			prev, row := res.Rows[i-1].KeyValues[0], res.Rows[i].KeyValues[0]
			if isNum(row) && !isNum(prev) {
				t.Fatalf("%s: number %v sorts after %v, the order %q", name, row, prev, got)
			}
			if isNum(prev) && isNum(row) && num(prev) != num(prev) && num(row) == num(row) {
				t.Fatalf("%s: NaN %v sorts before %v, the order %q", name, prev, row, got)
			}
		}
	}
	// Ties order by the raw key.
	for _, tie := range [][2]string{{"1", "1.0"}, {"-0", "0"}} {
		got := order(keyed(nums...))
		if tie[0] == "-0" {
			got = order(keyed(cont...))
		}
		if slices.Index(got, tie[0]) > slices.Index(got, tie[1]) {
			t.Fatalf("tie %q sorts after %q: %q", tie[0], tie[1], got)
		}
	}
}

// num is a key component's numeric value: its float, or its parse.
func num(v relation.Value) float64 {
	if v.Kind() == relation.Continuous {
		return v.Float()
	}
	f, _ := strconv.ParseFloat(v.Str(), 64)
	return f
}

func TestAggValues(t *testing.T) {
	tbl := sensorsTable(t)
	q, err := FromSQL(tbl, "SELECT avg(temp), time FROM s GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	vals := q.AggValues(relation.RowSetOf(tbl.NumRows(), 3, 4, 5))
	if len(vals) != 3 || vals[0] != 35 || vals[1] != 35 || vals[2] != 100 {
		t.Errorf("AggValues = %v", vals)
	}
	// count(*) path returns zeros of the right length.
	q2, err := FromSQL(tbl, "SELECT count(*), time FROM s GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	vals = q2.AggValues(relation.RowSetOf(tbl.NumRows(), 0, 1))
	if len(vals) != 2 || vals[0] != 0 || vals[1] != 0 {
		t.Errorf("count(*) AggValues = %v", vals)
	}
}

func TestSQLRendering(t *testing.T) {
	tbl := sensorsTable(t)
	q, err := FromSQL(tbl, "SELECT avg(temp), time FROM sensors GROUP BY time")
	if err != nil {
		t.Fatal(err)
	}
	if q.SQL() == "" {
		t.Error("SQL() empty for parsed query")
	}
	q2, err := Bind(tbl, "avg", "temp", []string{"time"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q2.SQL() == "" {
		t.Error("SQL() empty for bound query")
	}
}
