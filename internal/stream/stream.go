// Package stream maintains the incremental state that lets explanations
// track an append-only table instead of restarting from scratch — the
// streaming-ingestion counterpart of §5.1's decomposable aggregates.
//
// A Tracker follows one (table lineage, query) pair. It keeps, per output
// group, the provenance RowSet and the aggregate's Removable state, in the
// query's canonical key order, and finds a group by its raw group-by cells
// (query.Cells, the identity query.Run groups by). When the table grows by
// an append batch, Advance routes each qualifying tail row to its group by
// its cells, folds each touched group's tail rows, in ascending order, into
// a tail state merged with Removable.Update, and grows the group's
// provenance with RowSet.Grow. Only a row with new cells renders a key and
// opens a group, and only then do the groups re-sort; the statement is
// bound once, and an advance recompiles only its WHERE filter, if any.
// An advance costs its batch and the groups, never the table or its
// history: a run-encoded group (the encoding a grouped scan settles into)
// grows by appending the batch's runs into its run array, shared with the
// set it grew from, so an untouched group copies nothing and a touched one
// copies only when its array is full (amortized O(1) per run) or the batch
// extends its last run; only a group that degraded to the dense encoding
// still pays a |D|/64-word copy. The refreshed states seed
// influence.NewScorerSeeded, so a warm re-explain skips the cold path's
// full scan, regroup, and per-group state rebuild.
//
// The Tracker is deliberately label-agnostic: it maintains ALL groups, and
// the caller (which knows the request's outlier/hold-out labels and λ)
// decides from the Advance delta whether its cached candidates can be
// re-scored warm or the labels changed shape (e.g. a brand-new group under
// all-others-hold-out) and a cold run is due.
package stream

import (
	"bytes"
	"fmt"
	"sort"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/sqlparse"
)

// GroupState is one output group's incrementally maintained state.
type GroupState struct {
	// Key is the canonical group key.
	Key string
	// KeyValues are the group-by column values.
	KeyValues []relation.Value
	// Rows is the group's provenance over the CURRENT table (universe =
	// Tracker.Rows()). It is replaced — never mutated in place — on
	// Advance, so snapshots handed out earlier stay consistent.
	Rows *relation.RowSet
	// State is the aggregate's Removable state over Rows.
	State aggregate.State
	// tail collects the group's rows of the batch Advance is folding.
	tail *relation.RowSet
}

// Value recovers the group's aggregate result from its state.
func (g *GroupState) Value(rem aggregate.Removable) float64 { return rem.Recover(g.State) }

// Delta reports what an append batch did to the query's output groups.
type Delta struct {
	// TailRows is the number of appended rows the batch contributed
	// (after the query's WHERE filter, rows that joined some group).
	TailRows int
	// Touched lists existing groups that gained rows, sorted by key.
	Touched []string
	// New lists groups that did not exist before the batch, sorted by key.
	New []string
}

// Tracker maintains per-group provenance and Removable states for one
// query over one append-only table lineage. It is not safe for concurrent
// use; its caller, a scorpion.Session, serializes runs.
type Tracker struct {
	stmt   *sqlparse.SelectStmt // parsed once, bound to every batch's tail
	table  *relation.Table
	rows   int
	q      *query.AggregateQuery // bound against the current table
	rem    aggregate.Removable
	groups map[string]*GroupState
	order  []*GroupState          // the groups in canonical key order
	index  map[string]*GroupState // the groups by raw cells (query.Cells)
}

// NewTracker executes the query cold over the table and captures every
// group's provenance and state. The query's aggregate must be
// incrementally removable — black-box aggregates have no decomposable
// state to maintain, so streaming callers fall back to cold runs.
func NewTracker(tbl *relation.Table, sql string) (*Tracker, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	q, err := query.FromStmt(tbl, stmt)
	if err != nil {
		return nil, err
	}
	res, err := q.Run()
	if err != nil {
		return nil, err
	}
	return newTracker(tbl, stmt, q, res)
}

// NewTrackerFromResult builds a tracker from an ALREADY-EXECUTED query
// result over tbl — the cold-run path, where the search just ran the very
// same query and re-scanning the table for grouping would double the
// O(|D|) work. Only the per-group state construction remains.
func NewTrackerFromResult(tbl *relation.Table, sql string, res *query.Result) (*Tracker, error) {
	if res == nil || res.Query == nil {
		return nil, fmt.Errorf("stream: nil query result")
	}
	if res.Query.Table.Data() != tbl {
		return nil, fmt.Errorf("stream: query result was executed against a different table")
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return newTracker(tbl, stmt, res.Query, res)
}

func newTracker(tbl *relation.Table, stmt *sqlparse.SelectStmt, q *query.AggregateQuery, res *query.Result) (*Tracker, error) {
	rem, ok := q.Agg.(aggregate.Removable)
	if !ok {
		return nil, fmt.Errorf("stream: aggregate %q is not incrementally removable", q.Agg.Name())
	}
	tr := &Tracker{
		stmt:   stmt,
		table:  tbl,
		rows:   tbl.NumRows(),
		q:      q,
		rem:    rem,
		groups: make(map[string]*GroupState, len(res.Rows)),
		order:  make([]*GroupState, 0, len(res.Rows)),
		index:  make(map[string]*GroupState, len(res.Rows)),
	}
	// A Result's rows are in canonical key order already; a group's first
	// row holds its cells.
	cells, key := q.Cells(tbl), []byte(nil)
	for _, row := range res.Rows {
		g := &GroupState{
			Key:       row.Key,
			KeyValues: row.KeyValues,
			Rows:      row.Group,
			State:     influence.GroupState(tbl, q.AggCol, row.Group),
		}
		tr.groups[row.Key] = g
		tr.order = append(tr.order, g)
		key = cells.Append(key[:0], row.Group.Min())
		tr.index[string(key)] = g
	}
	return tr, nil
}

// Rows reports the row count the tracker's state matches.
func (tr *Tracker) Rows() int { return tr.rows }

// Table returns the snapshot the tracker's state matches.
func (tr *Tracker) Table() *relation.Table { return tr.table }

// Removable returns the aggregate's removable interface.
func (tr *Tracker) Removable() aggregate.Removable { return tr.rem }

// AggCol returns the aggregate attribute's column index (-1 for count(*)).
func (tr *Tracker) AggCol() int { return tr.q.AggCol }

// Group returns the state of the keyed group.
func (tr *Tracker) Group(key string) (*GroupState, bool) {
	g, ok := tr.groups[key]
	return g, ok
}

// Keys returns every group key, sorted.
func (tr *Tracker) Keys() []string {
	out := make([]string, 0, len(tr.groups))
	for k := range tr.groups {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Advance folds an append batch into the tracker: succ must be a successor
// snapshot of the tracked table (same schema, at least as many rows, with
// the tracked rows as its prefix — the shape catalog.Append guarantees for
// entries sharing a Lineage). Only the tail window [Rows(), succ.NumRows())
// is scanned. It returns what changed; a no-growth successor yields an
// empty delta.
func (tr *Tracker) Advance(succ *relation.Table) (*Delta, error) {
	if succ == nil {
		return nil, fmt.Errorf("stream: nil successor table")
	}
	if !succ.Schema().Equal(tr.table.Schema()) {
		return nil, fmt.Errorf("stream: successor schema %q != tracked %q", succ.Schema(), tr.table.Schema())
	}
	n := succ.NumRows()
	if n < tr.rows {
		return nil, fmt.Errorf("stream: successor has %d rows, tracker at %d — not an append", n, tr.rows)
	}
	if n == tr.rows {
		tr.table = succ
		return &Delta{}, nil
	}
	// Only a WHERE filter reads the snapshot's columns and dictionaries.
	q := *tr.q
	q.Table = succ
	var err error
	if q.Where, err = query.CompileWhere(succ, tr.stmt.Where); err != nil {
		return nil, err
	}
	// Collect each touched group's tail rows, ascending, as Run groups rows.
	cells := q.Cells(succ)
	var touched []*GroupState
	var g *GroupState
	var key, prev []byte
	for r := tr.rows; r < n; r++ {
		if q.Where != nil && !q.Where(r) {
			continue
		}
		key = cells.Append(key[:0], r)
		if g == nil || !bytes.Equal(key, prev) {
			if g = tr.index[string(key)]; g == nil {
				row := cells.Open(r, tr.rows)
				g = &GroupState{Key: row.Key, KeyValues: row.KeyValues, Rows: row.Group}
				tr.index[string(key)] = g
			}
			if g.tail == nil {
				g.tail = relation.NewRowSet(n - tr.rows)
				touched = append(touched, g)
			}
			key, prev = prev, key
		}
		g.tail.Add(r - tr.rows)
	}
	// Every group gets a new set, so previously handed-out snapshots (scorer
	// tasks, query results) keep reading their own frozen state.
	delta := &Delta{}
	tail := succ.Tail(tr.rows)
	for _, g := range touched {
		delta.TailRows += g.tail.Count()
		st := influence.GroupState(tail, tr.q.AggCol, g.tail)
		if !g.Rows.IsEmpty() {
			g.State = tr.rem.Update(g.State, st)
			delta.Touched = append(delta.Touched, g.Key)
		} else { // the batch opened the group
			g.State = st
			tr.groups[g.Key] = g
			tr.order = append(tr.order, g)
			delta.New = append(delta.New, g.Key)
		}
		g.Rows, g.tail = g.Rows.Grow(g.tail), nil
	}
	none := relation.NewRowSet(n - tr.rows)
	for _, g := range tr.order {
		if g.Rows.Universe() < n {
			g.Rows = g.Rows.Grow(none)
		}
	}
	if len(delta.New) > 0 {
		tr.sortOrder()
	}
	sort.Strings(delta.Touched)
	sort.Strings(delta.New)
	tr.table = succ
	tr.rows = n
	tr.q = &q
	return delta, nil
}

// sortOrder puts tr.order back into canonical key order after new groups
// were appended to it.
func (tr *Tracker) sortOrder() {
	rows := make([]query.ResultRow, len(tr.order))
	for i, g := range tr.order {
		rows[i] = query.ResultRow{Key: g.Key, KeyValues: g.KeyValues}
	}
	query.SortRows(rows)
	for i, row := range rows {
		tr.order[i] = tr.groups[row.Key]
	}
}

// Result materializes the tracked groups as a query.Result over the
// current table — values recovered from the maintained states, provenance
// shared with the tracker's current sets, rows in the order the tracker
// keeps. Equivalent to re-running the query, at O(groups) cost.
func (tr *Tracker) Result() *query.Result {
	rows := make([]query.ResultRow, len(tr.order))
	for i, g := range tr.order {
		rows[i] = query.ResultRow{
			Key:       g.Key,
			KeyValues: g.KeyValues,
			Value:     tr.rem.Recover(g.State),
			Group:     g.Rows,
		}
	}
	return query.NewOrderedResult(tr.q, rows)
}

// States collects the Removable states for the given group keys, in order.
// A missing key yields an error — the caller's labels referenced a group
// the tracked query no longer produces.
func (tr *Tracker) States(keys []string) ([]aggregate.State, error) {
	out := make([]aggregate.State, len(keys))
	for i, k := range keys {
		g, ok := tr.groups[k]
		if !ok {
			return nil, fmt.Errorf("stream: no tracked group %q", k)
		}
		out[i] = g.State
	}
	return out, nil
}
