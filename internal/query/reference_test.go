package query

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/scorpiondb/scorpion/internal/relation"
)

// referenceRun is Run as it grouped rows by their rendered key string: the
// GroupKey of every row's group-by values, one map entry per distinct key.
func referenceRun(q *AggregateQuery) *Result {
	t := q.Table.Data()
	n := t.NumRows()
	groups := make(map[string]*relation.RowSet)
	keyVals := make(map[string][]relation.Value)
	vals := make([]relation.Value, len(q.GroupBy))
	for r := 0; r < n; r++ {
		if q.Where != nil && !q.Where(r) {
			continue
		}
		for i, col := range q.GroupBy {
			vals[i] = t.Value(col, r)
		}
		key := GroupKey(vals)
		set, ok := groups[key]
		if !ok {
			set = relation.NewRowSet(n)
			groups[key] = set
			keyVals[key] = append([]relation.Value(nil), vals...)
		}
		set.Add(r)
	}
	var rows []ResultRow
	for key, set := range groups {
		rows = append(rows, ResultRow{Key: key, KeyValues: keyVals[key], Value: q.Agg.Compute(q.AggValues(set)), Group: set})
	}
	return NewResult(q, rows)
}

// lessKeyValues is the order NewResult sorted with before SortRows:
// component-wise, continuous numerically, discrete by numeric value when
// both parse as numbers, else lexically. It is not a strict weak order: a
// NaN ties with every number, "1" ties with "1.0", and a discrete column
// mixing numbers and other strings can cycle ("9" < "10" < "5x" < "9").
func lessKeyValues(a, b []relation.Value) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		av, bv := a[i], b[i]
		if av.Kind() == relation.Continuous && bv.Kind() == relation.Continuous {
			if av.Float() != bv.Float() {
				return av.Float() < bv.Float()
			}
			continue
		}
		as, bs := av.String(), bv.String()
		an, aerr := strconv.ParseFloat(as, 64)
		bn, berr := strconv.ParseFloat(bs, 64)
		if aerr == nil && berr == nil {
			if an != bn {
				return an < bn
			}
			continue
		}
		if as != bs {
			return as < bs
		}
	}
	return false
}

// TestRunMatchesReference: Run, which looks rows up by their raw cells and
// renders a key once per group, forms the groups the string-keyed grouping
// forms — the same keys, key values (to the bit, a NaN group keeping its
// first row's payload), provenance and aggregate bits, in key order where
// the keys have one — over
// one- and multi-column GROUP BYs on discrete and continuous columns with
// −0 and +0, NaN payloads and ±Inf, with and without a WHERE filter.
func TestRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	schema := relation.MustSchema(
		relation.Column{Name: "d", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "y", Kind: relation.Continuous},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	cells := []float64{
		0, math.Copysign(0, -1), 1.5, -2, 1e300, math.Inf(1), math.Inf(-1), // the first 7 hold no NaN
		math.NaN(),
		math.Float64frombits(0x7ff8000000000001), // quiet NaN, another payload
		math.Float64frombits(0x7ff0000000000002), // signalling NaN
		math.Float64frombits(0xfff8000000000000), // negative NaN
	}
	for _, nans := range []bool{false, true} {
		xs := cells[:7]
		if nans {
			xs = cells
		}
		b := relation.NewBuilder(schema)
		for i := 0; i < 2000; i++ {
			b.MustAppend(relation.Row{
				relation.S(fmt.Sprintf("c%d", rng.Intn(5))),
				relation.F(xs[rng.Intn(len(xs))]),
				relation.F(float64(rng.Intn(3))),
				relation.F(rng.NormFloat64()*10 + 20),
			})
		}
		runMatchesReference(t, b.Build(), nans)
	}
}

// runMatchesReference checks every query over tbl; nans tells whether its
// x column holds NaNs.
func runMatchesReference(t *testing.T, tbl *relation.Table, nans bool) {
	for _, sql := range []string{
		"SELECT sum(v), d FROM t GROUP BY d",
		"SELECT sum(v), x FROM t GROUP BY x",
		"SELECT avg(v), d, x FROM t GROUP BY d, x",
		"SELECT count(*), x, y FROM t GROUP BY x, y",
		"SELECT stddev(v), y, d, x FROM t WHERE d IN ('c1', 'c3') GROUP BY y, d, x",
		"SELECT sum(v), x, d FROM t WHERE y > 0 GROUP BY x, d",
	} {
		q, err := FromSQL(tbl, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		got, err := q.Run()
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		want := referenceRun(q)
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d groups, reference %d", sql, len(got.Rows), len(want.Rows))
		}
		for i, row := range got.Rows {
			// A NaN key compares equal to every key value, which leaves the
			// key order of a result that holds one undefined.
			if i > 0 && !nans && lessKeyValues(row.KeyValues, got.Rows[i-1].KeyValues) {
				t.Fatalf("%s: group %q sorts after %q", sql, row.Key, got.Rows[i-1].Key)
			}
			ref, ok := want.Lookup(row.Key)
			if !ok {
				t.Fatalf("%s: group %q is not a reference group", sql, row.Key)
			}
			for k, v := range row.KeyValues {
				w := ref.KeyValues[k]
				same := v.Kind() == w.Kind()
				if same && v.Kind() == relation.Continuous {
					same = math.Float64bits(v.Float()) == math.Float64bits(w.Float())
				} else if same {
					same = v.Str() == w.Str()
				}
				if !same {
					t.Fatalf("%s: group %q key value %d is %v, reference %v", sql, row.Key, k, v, w)
				}
			}
			if math.Float64bits(row.Value) != math.Float64bits(ref.Value) {
				t.Fatalf("%s: group %q value %v, reference %v", sql, row.Key, row.Value, ref.Value)
			}
			if !row.Group.Equal(ref.Group) || row.Group.Encoding() != ref.Group.Encoding() {
				t.Fatalf("%s: group %q has %d rows (%s), reference %d (%s)", sql, row.Key,
					row.Group.Count(), row.Group.Encoding(), ref.Group.Count(), ref.Group.Encoding())
			}
		}
	}
}
