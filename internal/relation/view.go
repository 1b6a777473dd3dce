package relation

import "fmt"

// Relation is the read-only face shared by a whole *Table and a *View of
// one. Search components (query grouping, predicate spaces, influence
// scorers) accept a Relation, so a shard-local search sees only its own
// row window while using the exact same code paths as a full-table search.
//
// Row ids are LOCAL to the relation: [0, NumRows()). Data returns the
// concrete columnar window those ids index — hot loops grab it once and
// work against *Table directly, so the interface costs nothing per row.
// Base and Off anchor local rows in the root table's global id space:
// global = Off() + local.
type Relation interface {
	// Schema returns the relation's column layout (shared with the base).
	Schema() *Schema
	// NumRows reports the number of rows in this relation's window.
	NumRows() int
	// Floats returns the backing slice of a continuous column (read-only),
	// indexed by local row id.
	Floats(col int) []float64
	// Codes returns the backing code slice of a discrete column
	// (read-only), indexed by local row id.
	Codes(col int) []int32
	// Dict returns the dictionary of a discrete column. Views share their
	// base table's dictionaries, so codes — and therefore discrete
	// predicate clauses — mean the same thing on every shard.
	Dict(col int) *Dict
	// FloatStats computes min/max/count of a continuous column over the
	// rows in set (local ids; nil = the whole window).
	FloatStats(col int, set *RowSet) ColumnStats
	// DistinctCodes returns the distinct codes of a discrete column in set
	// (local ids; nil = the whole window), ascending.
	DistinctCodes(col int, set *RowSet) []int32
	// Data returns the concrete columnar store behind this relation: the
	// table itself, or a view's zero-copy window table.
	Data() *Table
	// Base returns the root table the relation's rows come from.
	Base() *Table
	// Off returns the global row id of local row 0.
	Off() int
}

// Table implements Relation over its own full extent.
var _ Relation = (*Table)(nil)

// Data returns the table itself: a Table is its own columnar store.
func (t *Table) Data() *Table { return t }

// Base returns the table itself: a Table is its own root.
func (t *Table) Base() *Table { return t }

// Off returns 0: a table's local and global row ids coincide.
func (t *Table) Off() int { return 0 }

// View is a zero-copy horizontal slice of a Table: a contiguous row window
// [off, off+len) sharing the base table's column arrays (via subslices)
// and its dictionaries. Building a view allocates only headers — no row
// data is copied — so slicing a huge table into shards is O(columns), not
// O(rows).
//
// A View is itself a Relation with local row ids [0, Len()); LocalRows
// and GlobalRows translate provenance sets between the window and the
// base table's id space, and Off gives the window's offset.
type View struct {
	win  *Table // the windowed sub-table: subslices of base, shared dicts
	base *Table
	off  int
}

var _ Relation = (*View)(nil)

// Window returns the zero-copy view of rows [lo, hi) of the table. It
// panics when the bounds are not 0 <= lo <= hi <= NumRows().
func (t *Table) Window(lo, hi int) *View {
	if lo < 0 || hi < lo || hi > t.n {
		panic(fmt.Sprintf("relation: window [%d,%d) outside table of %d rows", lo, hi, t.n))
	}
	floats := make([][]float64, len(t.floats))
	for i, f := range t.floats {
		if f != nil {
			floats[i] = f[lo:hi:hi]
		}
	}
	codes := make([][]int32, len(t.codes))
	for i, c := range t.codes {
		if c != nil {
			codes[i] = c[lo:hi:hi]
		}
	}
	win := &Table{
		schema: t.schema,
		n:      hi - lo,
		floats: floats,
		codes:  codes,
		dicts:  t.dicts,
	}
	return &View{win: win, base: t, off: lo}
}

// Shards splits the table into k contiguous views of near-equal size
// (sizes differ by at most one row): disjoint, covering, in row order.
// k is clamped to [1, NumRows()] (a non-empty table never yields empty
// shards); an empty table yields one empty shard.
func (t *Table) Shards(k int) []*View {
	if k < 1 {
		k = 1
	}
	if k > t.n && t.n > 0 {
		k = t.n
	}
	out := make([]*View, 0, k)
	for i := 0; i < k; i++ {
		lo := i * t.n / k
		hi := (i + 1) * t.n / k
		out = append(out, t.Window(lo, hi))
	}
	return out
}

// ShardsAt splits the table at the given cut points: bounds must be
// strictly increasing and lie in (0, NumRows()); the result has
// len(bounds)+1 contiguous views covering every row. It panics on
// out-of-order or out-of-range bounds — callers (the shard planner)
// produce them by construction.
func (t *Table) ShardsAt(bounds []int) []*View {
	out := make([]*View, 0, len(bounds)+1)
	lo := 0
	for _, b := range bounds {
		if b <= lo || b >= t.n {
			panic(fmt.Sprintf("relation: shard bound %d outside (%d,%d)", b, lo, t.n))
		}
		out = append(out, t.Window(lo, b))
		lo = b
	}
	return append(out, t.Window(lo, t.n))
}

// Schema returns the base table's schema (views never reshape columns).
func (v *View) Schema() *Schema { return v.win.schema }

// NumRows reports the window length.
func (v *View) NumRows() int { return v.win.n }

// Len is NumRows under its geometric name.
func (v *View) Len() int { return v.win.n }

// Floats returns the windowed slice of a continuous column.
func (v *View) Floats(col int) []float64 { return v.win.Floats(col) }

// Codes returns the windowed code slice of a discrete column.
func (v *View) Codes(col int) []int32 { return v.win.Codes(col) }

// Dict returns the base table's dictionary for a discrete column.
func (v *View) Dict(col int) *Dict { return v.win.Dict(col) }

// FloatStats computes min/max/count over the window (local ids).
func (v *View) FloatStats(col int, set *RowSet) ColumnStats { return v.win.FloatStats(col, set) }

// DistinctCodes returns the distinct codes within the window (local ids).
func (v *View) DistinctCodes(col int, set *RowSet) []int32 { return v.win.DistinctCodes(col, set) }

// Data returns the zero-copy window table; its row ids are the view's
// local ids.
func (v *View) Data() *Table { return v.win }

// Base returns the root table the view slices.
func (v *View) Base() *Table { return v.base }

// Off returns the global row id of the window's first row.
func (v *View) Off() int { return v.off }

// LocalRows projects a base-table RowSet onto the window: the returned set
// has universe Len() and contains, shifted by -Off, exactly the members
// that fall inside the window.
func (v *View) LocalRows(global *RowSet) *RowSet {
	if global.Universe() != v.base.n {
		panic(fmt.Sprintf("relation: LocalRows universe %d != base %d", global.Universe(), v.base.n))
	}
	return global.Slice(v.off, v.off+v.win.n)
}

// GlobalRows embeds a window-local RowSet back into the base table's id
// space: the inverse of LocalRows, so v.GlobalRows(v.LocalRows(s)) equals
// s restricted to the window.
func (v *View) GlobalRows(local *RowSet) *RowSet {
	if local.Universe() != v.win.n {
		panic(fmt.Sprintf("relation: GlobalRows universe %d != window %d", local.Universe(), v.win.n))
	}
	return local.Embed(v.off, v.base.n)
}

// String renders a small summary, e.g. "View([100,200) of 1000)".
func (v *View) String() string {
	return fmt.Sprintf("View([%d,%d) of %d)", v.off, v.off+v.win.n, v.base.n)
}
