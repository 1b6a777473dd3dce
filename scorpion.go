// Package scorpion is a Go implementation of Scorpion (Wu & Madden, VLDB
// 2013): given an aggregate GROUP BY query and a set of user-flagged outlier
// results, it finds the predicate over the input tuples' attributes that
// most influences those outliers while leaving the hold-out results intact —
// an answer to "which inputs caused this output to look wrong?".
//
// # Quick start
//
//	tbl, _ := scorpion.ReadCSV(f, scorpion.CSVOptions{})
//	res, _ := scorpion.Explain(&scorpion.Request{
//		Table:     tbl,
//		SQL:       "SELECT avg(temp), hour FROM readings GROUP BY hour",
//		Outliers:  []string{"h012", "h013"},
//		Direction: scorpion.TooHigh,
//	})
//	fmt.Println(res.Explanations[0].Predicate.Format(tbl))
//
// The package selects among three search algorithms based on the aggregate's
// properties (§5 of the paper): the exhaustive NAIVE search for black-box
// aggregates, the DT regression-tree partitioner for independent aggregates
// (AVG, STDDEV, ...), and the bottom-up MC subspace search for independent
// anti-monotonic aggregates (SUM, COUNT). See the Request.Algorithm knob to
// force a choice, and Request.C for the §7 influence/selectivity trade-off.
//
// # Cancellation and parallelism
//
// ExplainContext threads a context.Context through every search loop: a
// cancelled or expired context stops the search promptly and returns the
// best explanations found so far alongside the context error. Request.
// Workers fans all three algorithms out over a shared worker pool — the
// parallelization §8.3.2 of the paper leaves to future work — with output
// identical to the serial run.
//
// # Sessions
//
// A Session keeps one request's work for its next run: a c sweep re-uses
// the DT partitioning (§8.3.3), and a re-ask after an append re-scores the
// previous candidate pool against the grown table instead of searching.
package scorpion

import (
	"io"

	"github.com/scorpiondb/scorpion/internal/aggregate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// Core relational vocabulary, re-exported from the internal substrate.
type (
	// Table is an immutable columnar relation.
	Table = relation.Table
	// Builder accumulates rows into a Table.
	Builder = relation.Builder
	// Schema is an ordered list of uniquely named columns.
	Schema = relation.Schema
	// Column describes one attribute.
	Column = relation.Column
	// Kind distinguishes continuous from discrete attributes.
	Kind = relation.Kind
	// Row is one tuple.
	Row = relation.Row
	// Value is one cell.
	Value = relation.Value
	// RowSet is a set of row indices — Scorpion's provenance currency. It
	// self-selects among dense-bitmap, range-run, and sparse-array
	// encodings, so group-contiguous provenance costs bytes per run, not
	// bytes per row.
	RowSet = relation.RowSet
	// CSVOptions controls CSV decoding.
	CSVOptions = relation.CSVOptions
	// Appender grows an append-only table as a chain of immutable
	// snapshots sharing backing arrays — the streaming-ingestion substrate.
	Appender = relation.Appender
	// Predicate is the explanation language: a conjunction of range and
	// set-containment clauses.
	Predicate = predicate.Predicate
	// Clause is a single-attribute constraint.
	Clause = predicate.Clause
	// Direction is a ±1 error vector for an outlier result.
	Direction = influence.Direction
	// Aggregate is the aggregate-function interface; custom black-box
	// aggregates implement it (see also aggregate properties in DESIGN.md).
	Aggregate = aggregate.Func
)

// Attribute kinds.
const (
	// Continuous columns hold float64 values and admit range clauses.
	Continuous = relation.Continuous
	// Discrete columns hold strings and admit set-containment clauses.
	Discrete = relation.Discrete
)

// Error-vector directions.
const (
	// TooHigh flags outlier results whose values should decrease.
	TooHigh = influence.TooHigh
	// TooLow flags outlier results whose values should increase.
	TooLow = influence.TooLow
)

// F wraps a float64 as a continuous Value.
func F(v float64) Value { return relation.F(v) }

// S wraps a string as a discrete Value.
func S(v string) Value { return relation.S(v) }

// NewSchema builds a schema from uniquely named columns.
func NewSchema(cols ...Column) (*Schema, error) { return relation.NewSchema(cols...) }

// NewBuilder returns a table builder for the schema.
func NewBuilder(schema *Schema) *Builder { return relation.NewBuilder(schema) }

// NewAppender returns an appender over an empty table of the schema.
func NewAppender(schema *Schema) *Appender { return relation.NewAppender(schema) }

// AppenderFor returns an appender extending an existing table; the table
// itself stays immutable while successor snapshots share its storage.
func AppenderFor(t *Table) *Appender { return relation.AppenderFor(t) }

// ReadCSV decodes a CSV stream with a header row, inferring column kinds.
func ReadCSV(r io.Reader, opts CSVOptions) (*Table, error) { return relation.ReadCSV(r, opts) }

// ParseCSVRows decodes a CSV batch (header row, any column order) into rows
// matching an existing schema — the append-batch codec.
func ParseCSVRows(r io.Reader, schema *Schema, opts CSVOptions) ([]Row, error) {
	return relation.ParseCSVRows(r, schema, opts)
}

// WriteCSV encodes a table as CSV with a header row.
func WriteCSV(w io.Writer, t *Table) error { return relation.WriteCSV(w, t) }

// QueryResult is an executed aggregate query: one row per group, each
// carrying its provenance RowSet.
type QueryResult = query.Result

// RunQuery parses and executes an aggregate GROUP BY query against the
// table, without explaining anything — useful to inspect the results (and
// pick outliers) before calling Explain.
func RunQuery(t *Table, sql string) (*QueryResult, error) {
	q, err := query.FromSQL(t, sql)
	if err != nil {
		return nil, err
	}
	return q.Run()
}

// OutlierRows returns g_O, the union of the flagged outlier groups'
// provenance.
func (r *Result) OutlierRows() *RowSet { return r.task.OutlierUnion() }

// MatchedRows returns p(g_O) for explanation i: the influential subset of
// the outliers' provenance. This is the paper's §2 "extending provenance
// functionality" use case — the aggregate's full provenance reduced to the
// inputs that actually caused the anomaly. It evaluates the predicate on
// each call; MatchedOutlierTuples is its count.
func (r *Result) MatchedRows(i int) *RowSet {
	return r.Explanations[i].Predicate.Eval(r.task.Table.Data(), r.OutlierRows())
}
