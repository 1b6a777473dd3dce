// Package query executes Scorpion's class of aggregate queries — single
// table, GROUP BY, one aggregate, optional WHERE — and records backward
// provenance: every output row keeps the RowSet of input tuples that
// produced it (the paper's "input group" g_αi, §3.1 and the Provenance
// component of §4.1).
package query

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/sqlparse"
)

// AggregateQuery is a bound, executable query against a specific relation
// — a whole table, or a relation.View whose grouping (and provenance)
// covers only that window's rows.
type AggregateQuery struct {
	Table relation.Relation
	// GroupBy holds group-by column indexes.
	GroupBy []int
	// Agg is the aggregate function.
	Agg aggregate.Func
	// AggCol is the aggregate attribute's column index, or -1 for count(*).
	AggCol int
	// Where is an optional row filter (nil = all rows).
	Where func(row int) bool
	// stmt retains the SQL text for display when built from SQL.
	stmt *sqlparse.SelectStmt
}

// ResultRow is one output tuple α_i with its provenance.
type ResultRow struct {
	// Key is the canonical group key (join of the rendered key values).
	Key string
	// KeyValues are the group-by column values for this group.
	KeyValues []relation.Value
	// Value is the aggregate result α_i.res.
	Value float64
	// Group is the input group g_αi: the rows that produced this output.
	Group *relation.RowSet
}

// Result is the ordered output of an AggregateQuery.
type Result struct {
	Query *AggregateQuery
	Rows  []ResultRow
	byKey map[string]int
}

// keySep separates rendered key components; it cannot appear in data because
// it is a control byte.
const keySep = "\x1f"

// GroupKey renders group-by values into the canonical key string.
func GroupKey(vals []relation.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.String()
	}
	return strings.Join(parts, keySep)
}

// Bind resolves column names and the aggregate, returning an executable
// query. aggArg may be "*" only for count.
func Bind(t relation.Relation, aggName, aggArg string, groupBy []string, where func(row int) bool) (*AggregateQuery, error) {
	agg, err := aggregate.ByName(aggName)
	if err != nil {
		return nil, err
	}
	q := &AggregateQuery{Table: t, Agg: agg, AggCol: -1, Where: where}
	if aggArg == "*" {
		if agg.Name() != "count" {
			return nil, fmt.Errorf("query: %s(*) is not supported; only count(*)", aggName)
		}
	} else {
		col, ok := t.Schema().Index(aggArg)
		if !ok {
			return nil, fmt.Errorf("query: no aggregate column %q", aggArg)
		}
		if t.Schema().Column(col).Kind != relation.Continuous {
			return nil, fmt.Errorf("query: aggregate column %q must be continuous", aggArg)
		}
		q.AggCol = col
	}
	if len(groupBy) == 0 {
		return nil, fmt.Errorf("query: at least one GROUP BY column is required")
	}
	seen := map[int]bool{}
	for _, name := range groupBy {
		col, ok := t.Schema().Index(name)
		if !ok {
			return nil, fmt.Errorf("query: no group-by column %q", name)
		}
		if seen[col] {
			return nil, fmt.Errorf("query: duplicate group-by column %q", name)
		}
		if col == q.AggCol {
			return nil, fmt.Errorf("query: column %q cannot be both grouped and aggregated", name)
		}
		seen[col] = true
		q.GroupBy = append(q.GroupBy, col)
	}
	return q, nil
}

// FromSQL parses and binds a SQL statement against the relation. The
// statement's FROM table name is accepted as-is (the caller supplies the
// relation).
func FromSQL(t relation.Relation, sql string) (*AggregateQuery, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	where, err := CompileWhere(t, stmt.Where)
	if err != nil {
		return nil, err
	}
	q, err := Bind(t, stmt.Agg.Name, stmt.Agg.Arg, stmt.GroupBy, where)
	if err != nil {
		return nil, err
	}
	q.stmt = stmt
	return q, nil
}

// SQL renders the query's SQL text when built from SQL, or a synthesized
// description otherwise.
func (q *AggregateQuery) SQL() string {
	if q.stmt != nil {
		return q.stmt.String()
	}
	agg := q.Agg.Name() + "(*)"
	if q.AggCol >= 0 {
		agg = fmt.Sprintf("%s(%s)", q.Agg.Name(), q.Table.Schema().Column(q.AggCol).Name)
	}
	names := make([]string, len(q.GroupBy))
	for i, c := range q.GroupBy {
		names[i] = q.Table.Schema().Column(c).Name
	}
	return fmt.Sprintf("SELECT %s FROM t GROUP BY %s", agg, strings.Join(names, ", "))
}

// RestAttributes returns A_rest: every attribute that is neither grouped nor
// aggregated (§3.1) — the attributes explanations are built from.
func (q *AggregateQuery) RestAttributes() []string {
	gb := map[int]bool{}
	for _, c := range q.GroupBy {
		gb[c] = true
	}
	var out []string
	for i := 0; i < q.Table.Schema().NumColumns(); i++ {
		if i == q.AggCol || gb[i] {
			continue
		}
		out = append(out, q.Table.Schema().Column(i).Name)
	}
	return out
}

// AggValues projects the aggregate attribute over the given rows, in row
// order. For count(*) it returns a slice of zeros of matching length (the
// values are irrelevant to COUNT).
func (q *AggregateQuery) AggValues(rows *relation.RowSet) []float64 {
	n := rows.Count()
	out := make([]float64, 0, n)
	if q.AggCol < 0 {
		return make([]float64, n)
	}
	col := q.Table.Floats(q.AggCol)
	rows.ForEach(func(r int) { out = append(out, col[r]) })
	return out
}

// Run executes the query, producing one ResultRow per group with full
// provenance. Rows are ordered by their key values (numeric-aware per
// component). Row ids (and the provenance RowSets) are local to the
// query's relation.
//
// A row finds its group by its raw group-by cells: a discrete cell's code,
// a continuous cell's Float64bits with every NaN made one. Those map one to
// one onto the rendered keys (a dictionary code onto its string, a float's
// bits onto its shortest 'g' form, −0 apart from +0, every NaN onto
// "NaN"), so the groups are the rendered keys' groups, and GroupKey renders
// each key once, for the row that opens its group.
func (q *AggregateQuery) Run() (*Result, error) {
	t := q.Table.Data()
	n := t.NumRows()
	floats := make([][]float64, len(q.GroupBy))
	codes := make([][]int32, len(q.GroupBy))
	for i, col := range q.GroupBy {
		if t.Schema().Column(col).Kind == relation.Continuous {
			floats[i] = t.Floats(col)
		} else {
			codes[i] = t.Codes(col)
		}
	}
	// Group provenance is built by one ascending row scan, so each set sees
	// in-order appends: on tables clustered by the group-by key (the common
	// time-series layout) the RowSets settle into the run encoding — a few
	// spans per group instead of an n-bit bitmap per group.
	var rows []ResultRow
	index := make(map[string]int) // raw cells → rows position
	// prev holds the last row's cells, whose group is g: on a clustered
	// table most rows are in their predecessor's group and skip the map.
	cells, prev := make([]byte, 0, 8*len(q.GroupBy)), make([]byte, 0, 8*len(q.GroupBy))
	g := -1
	for r := 0; r < n; r++ {
		if q.Where != nil && !q.Where(r) {
			continue
		}
		cells = cells[:0]
		for i := range q.GroupBy {
			if floats[i] == nil {
				cells = binary.LittleEndian.AppendUint32(cells, uint32(codes[i][r]))
				continue
			}
			v := floats[i][r]
			if v != v {
				v = math.NaN()
			}
			cells = binary.LittleEndian.AppendUint64(cells, math.Float64bits(v))
		}
		if g < 0 || !bytes.Equal(cells, prev) {
			var ok bool
			if g, ok = index[string(cells)]; !ok {
				g = len(rows)
				index[string(cells)] = g
				vals := make([]relation.Value, len(q.GroupBy))
				for i, col := range q.GroupBy {
					vals[i] = t.Value(col, r)
				}
				rows = append(rows, ResultRow{Key: GroupKey(vals), KeyValues: vals, Group: relation.NewRowSet(n)})
			}
			cells, prev = prev, cells
		}
		rows[g].Group.Add(r)
	}
	for i := range rows {
		rows[i].Value = q.Agg.Compute(q.AggValues(rows[i].Group))
	}
	return NewResult(q, rows), nil
}

// NewResult assembles a Result from externally maintained rows — the
// streaming tracker's path, where per-group provenance and aggregate values
// are advanced incrementally per append batch instead of recomputed by Run.
// Rows are sorted into Run's canonical key order and indexed; the slice is
// taken over (not copied).
func NewResult(q *AggregateQuery, rows []ResultRow) *Result {
	res := &Result{Query: q, Rows: rows, byKey: make(map[string]int, len(rows))}
	sort.Slice(res.Rows, func(i, j int) bool {
		return lessKeyValues(res.Rows[i].KeyValues, res.Rows[j].KeyValues)
	})
	for i, row := range res.Rows {
		res.byKey[row.Key] = i
	}
	return res
}

// lessKeyValues orders key tuples component-wise: continuous numerically,
// discrete by numeric value when both parse as numbers, else lexically.
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

// Lookup returns the result row with the given key.
func (r *Result) Lookup(key string) (ResultRow, bool) {
	i, ok := r.byKey[key]
	if !ok {
		return ResultRow{}, false
	}
	return r.Rows[i], true
}

// Keys returns all group keys in output order.
func (r *Result) Keys() []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.Key
	}
	return out
}
