package relation

import (
	"fmt"
	"math"
)

// Table is an immutable columnar relation. Continuous columns are []float64;
// discrete columns are dictionary-encoded []int32. Build with a Builder.
type Table struct {
	schema *Schema
	n      int
	floats [][]float64 // indexed by column position; nil for discrete columns
	codes  [][]int32   // indexed by column position; nil for continuous columns
	dicts  []*Dict     // indexed by column position; nil for continuous columns
}

// Builder accumulates rows and produces an immutable Table.
type Builder struct {
	schema *Schema
	n      int
	built  *Table // the frozen table once Build has run
	floats [][]float64
	codes  [][]int32
	dicts  []*Dict
}

// NewBuilder returns a builder for the given schema.
func NewBuilder(schema *Schema) *Builder {
	b := &Builder{
		schema: schema,
		floats: make([][]float64, schema.NumColumns()),
		codes:  make([][]int32, schema.NumColumns()),
		dicts:  make([]*Dict, schema.NumColumns()),
	}
	for i := 0; i < schema.NumColumns(); i++ {
		if schema.Column(i).Kind == Discrete {
			b.dicts[i] = NewDict()
		}
	}
	return b
}

// Append adds one row, validating arity and per-column kinds. After Build
// it returns ErrBuilt (the builder's storage has been handed to the table).
func (b *Builder) Append(row Row) error {
	if b.built != nil {
		return ErrBuilt
	}
	if err := row.checkAgainst(b.schema); err != nil {
		return err
	}
	for i, v := range row {
		if v.kind == Continuous {
			b.floats[i] = append(b.floats[i], v.f)
		} else {
			b.codes[i] = append(b.codes[i], b.dicts[i].Code(v.s))
		}
	}
	b.n++
	return nil
}

// MustAppend is Append that panics on error; for tests and generators whose
// rows are valid by construction.
func (b *Builder) MustAppend(row Row) {
	if err := b.Append(row); err != nil {
		panic(err)
	}
}

// NumRows reports how many rows have been appended so far.
func (b *Builder) NumRows() int { return b.n }

// Build freezes the builder into a Table. Further Append calls return
// ErrBuilt; a repeated Build returns the SAME frozen table (the builder's
// storage was handed to it, so rebuilding from the nilled slices would
// yield a corrupt table reporting rows it cannot read).
func (b *Builder) Build() *Table {
	if b.built != nil {
		return b.built
	}
	t := &Table{
		schema: b.schema,
		n:      b.n,
		floats: b.floats,
		codes:  b.codes,
		dicts:  b.dicts,
	}
	b.floats, b.codes, b.dicts = nil, nil, nil
	b.built = t
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows reports the number of rows.
func (t *Table) NumRows() int { return t.n }

// Floats returns the backing slice of a continuous column (read-only).
func (t *Table) Floats(col int) []float64 {
	if t.schema.Column(col).Kind != Continuous {
		panic(fmt.Sprintf("relation: Floats() on discrete column %q", t.schema.Column(col).Name))
	}
	return t.floats[col]
}

// Codes returns the backing code slice of a discrete column (read-only).
func (t *Table) Codes(col int) []int32 {
	if t.schema.Column(col).Kind != Discrete {
		panic(fmt.Sprintf("relation: Codes() on continuous column %q", t.schema.Column(col).Name))
	}
	return t.codes[col]
}

// Dict returns the dictionary of a discrete column.
func (t *Table) Dict(col int) *Dict {
	if t.schema.Column(col).Kind != Discrete {
		panic(fmt.Sprintf("relation: Dict() on continuous column %q", t.schema.Column(col).Name))
	}
	return t.dicts[col]
}

// Float returns a single continuous cell.
func (t *Table) Float(col, row int) float64 { return t.Floats(col)[row] }

// Code returns a single discrete cell's code.
func (t *Table) Code(col, row int) int32 { return t.Codes(col)[row] }

// Str returns a single discrete cell's string value.
func (t *Table) Str(col, row int) string { return t.dicts[col].Value(t.codes[col][row]) }

// Value returns any cell as a Value.
func (t *Table) Value(col, row int) Value {
	if t.schema.Column(col).Kind == Continuous {
		return F(t.floats[col][row])
	}
	return S(t.Str(col, row))
}

// Row materializes a full row. Intended for display and tests, not hot loops.
func (t *Table) Row(row int) Row {
	out := make(Row, t.schema.NumColumns())
	for c := range out {
		out[c] = t.Value(c, row)
	}
	return out
}

// Gather materializes a new table containing only the given rows, in set
// order. Dictionaries are rebuilt so codes stay dense.
func (t *Table) Gather(rows *RowSet) *Table {
	b := NewBuilder(t.schema)
	rows.ForEach(func(r int) {
		b.MustAppend(t.Row(r))
	})
	return b.Build()
}

// ColumnStats holds summary statistics of a continuous column over a row set.
type ColumnStats struct {
	Min, Max float64
	Count    int
}

// FloatStats computes min/max/count of a continuous column over the rows in
// set (or all rows if set is nil). NaN values are skipped.
func (t *Table) FloatStats(col int, set *RowSet) ColumnStats {
	vals := t.Floats(col)
	st := ColumnStats{Min: math.Inf(1), Max: math.Inf(-1)}
	consider := func(v float64) {
		if math.IsNaN(v) {
			return
		}
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		st.Count++
	}
	if set == nil {
		for _, v := range vals {
			consider(v)
		}
	} else {
		set.ForEach(func(r int) { consider(vals[r]) })
	}
	return st
}

// DistinctCodes returns the distinct codes of a discrete column appearing in
// set (or the whole table if set is nil), in ascending code order.
func (t *Table) DistinctCodes(col int, set *RowSet) []int32 {
	codes := t.Codes(col)
	seen := make([]bool, t.dicts[col].Len())
	if set == nil {
		for _, c := range codes {
			seen[c] = true
		}
	} else {
		set.ForEach(func(r int) { seen[codes[r]] = true })
	}
	out := make([]int32, 0, 16)
	for c, ok := range seen {
		if ok {
			out = append(out, int32(c))
		}
	}
	return out
}
