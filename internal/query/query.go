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
	return FromStmt(t, stmt)
}

// FromStmt binds an already-parsed statement against the relation, so a
// caller that binds one statement to many relations (the streaming
// tracker, once per append batch) parses it once.
func FromStmt(t relation.Relation, stmt *sqlparse.SelectStmt) (*AggregateQuery, error) {
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

// Cells reads rows' raw group-by cells, the identity Run groups rows by: a
// discrete cell's code, a continuous cell's Float64bits with every NaN made
// one. Those map one to one onto the rendered keys (a dictionary code onto
// its string, a float's bits onto its shortest 'g' form, −0 apart from +0,
// every NaN onto "NaN"), so grouping by cells forms the rendered keys'
// groups and renders each key once, for the row that opens its group. An
// append keeps every code's meaning, so cells read from one snapshot name
// the same groups in every later snapshot of its append chain.
type Cells struct {
	t      *relation.Table
	cols   []int
	floats [][]float64
	codes  [][]int32
}

// Cells binds the query's group-by columns to t: the query's own data, or
// a snapshot of its append chain.
func (q *AggregateQuery) Cells(t *relation.Table) *Cells {
	c := &Cells{t: t, cols: q.GroupBy, floats: make([][]float64, len(q.GroupBy)), codes: make([][]int32, len(q.GroupBy))}
	for i, col := range q.GroupBy {
		if t.Schema().Column(col).Kind == relation.Continuous {
			c.floats[i] = t.Floats(col)
		} else {
			c.codes[i] = t.Codes(col)
		}
	}
	return c
}

// Append appends row r's cells to dst.
func (c *Cells) Append(dst []byte, r int) []byte {
	for i, f := range c.floats {
		if f == nil {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(c.codes[i][r]))
			continue
		}
		v := f[r]
		if v != v {
			v = math.NaN()
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// Open returns the result row of the group row r opens: its rendered key,
// its key values and an empty provenance set over n rows.
func (c *Cells) Open(r, n int) ResultRow {
	vals := make([]relation.Value, len(c.cols))
	for i, col := range c.cols {
		vals[i] = c.t.Value(col, r)
	}
	return ResultRow{Key: GroupKey(vals), KeyValues: vals, Group: relation.NewRowSet(n)}
}

// Run executes the query, producing one ResultRow per group with full
// provenance. Rows are ordered by their key values (numeric-aware per
// component). Row ids (and the provenance RowSets) are local to the
// query's relation. A row finds its group by its Cells.
func (q *AggregateQuery) Run() (*Result, error) {
	t := q.Table.Data()
	n := t.NumRows()
	cr := q.Cells(t)
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
		cells = cr.Append(cells[:0], r)
		if g < 0 || !bytes.Equal(cells, prev) {
			var ok bool
			if g, ok = index[string(cells)]; !ok {
				g = len(rows)
				index[string(cells)] = g
				rows = append(rows, cr.Open(r, n))
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

// NewResult assembles a Result from externally maintained rows, sorting
// them into Run's canonical key order (SortRows) and indexing them; the
// slice is taken over (not copied).
func NewResult(q *AggregateQuery, rows []ResultRow) *Result {
	SortRows(rows)
	return NewOrderedResult(q, rows)
}

// NewOrderedResult assembles a Result from rows already in canonical key
// order — the streaming tracker's path, which keeps its groups in that
// order and re-sorts only when a batch brings a new group. The slice is
// taken over (not copied).
func NewOrderedResult(q *AggregateQuery, rows []ResultRow) *Result {
	res := &Result{Query: q, Rows: rows, byKey: make(map[string]int, len(rows))}
	for i, row := range rows {
		res.byKey[row.Key] = i
	}
	return res
}

// SortRows sorts rows into the canonical key order, a total order:
// component by component, two numbers — continuous values, and discrete
// values that parse as numbers — compare numerically with NaN after every
// number, a number sorts before a discrete value that is not one, and two
// of those compare lexically; rows whose components all tie (−0 and +0, "1"
// and "1.0") order by their raw Key. Each component is parsed once, before
// the sort.
func SortRows(rows []ResultRow) {
	if len(rows) < 2 {
		return
	}
	width := 0
	for _, row := range rows {
		width += len(row.KeyValues)
	}
	flat := make([]keyPart, 0, width)
	parts := make([][]keyPart, len(rows))
	for i, row := range rows {
		lo := len(flat)
		for _, v := range row.KeyValues {
			flat = append(flat, parseKeyPart(v))
		}
		parts[i] = flat[lo:len(flat):len(flat)]
	}
	sort.Sort(keyOrder{rows, parts})
}

// keyOrder sorts rows together with their parsed key components.
type keyOrder struct {
	rows  []ResultRow
	parts [][]keyPart
}

func (o keyOrder) Len() int { return len(o.rows) }

func (o keyOrder) Swap(i, j int) {
	o.rows[i], o.rows[j] = o.rows[j], o.rows[i]
	o.parts[i], o.parts[j] = o.parts[j], o.parts[i]
}

func (o keyOrder) Less(i, j int) bool {
	a, b := o.parts[i], o.parts[j]
	for k := range min(len(a), len(b)) {
		if c := a[k].compare(b[k]); c != 0 {
			return c < 0
		}
	}
	return o.rows[i].Key < o.rows[j].Key
}

// keyPart is one parsed key component: num tells whether it reads as a
// number (a continuous value, or a discrete one strconv.ParseFloat
// accepts), f is that number, and s the discrete string that is not one.
type keyPart struct {
	s   string
	f   float64
	num bool
}

func parseKeyPart(v relation.Value) keyPart {
	if v.Kind() == relation.Continuous {
		return keyPart{f: v.Float(), num: true}
	}
	if mayParse(v.Str()) {
		if f, err := strconv.ParseFloat(v.Str(), 64); err == nil {
			return keyPart{f: f, num: true}
		}
	}
	return keyPart{s: v.Str()}
}

// mayParse is false for strings strconv.ParseFloat rejects by their first
// character after an optional sign — a number starts with a digit or a
// point, "inf" and "nan" with their letter — so that keys like "g7" cost no
// parse and no error value.
func mayParse(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
		return true
	}
	return false
}

// compare orders two components: numbers numerically with NaN after every
// number, numbers before strings, strings lexically.
func (a keyPart) compare(b keyPart) int {
	switch {
	case a.num && b.num:
		switch an, bn := a.f != a.f, b.f != b.f; {
		case a.f < b.f || bn && !an:
			return -1
		case a.f > b.f || an && !bn:
			return 1
		}
		return 0
	case a.num != b.num:
		if a.num {
			return -1
		}
		return 1
	}
	return strings.Compare(a.s, b.s)
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
