package predicate

import (
	"fmt"
	"sort"

	"github.com/scorpiondb/scorpion/internal/relation"
)

// Domain describes one attribute's extent within the search space:
// [Lo, Hi] for continuous attributes, Card distinct values for discrete ones.
type Domain struct {
	Lo, Hi float64
	Card   int
}

// Space is the predicate search space: the subset of a relation's attributes
// (A_rest in the paper — everything that is neither the group-by key nor the
// aggregate input) together with their observed domains. A space built over
// a relation.View spans only that view's rows — the shard-local search
// space — while sharing the base table's dictionaries, so its discrete
// clauses stay meaningful globally.
type Space struct {
	rel     relation.Relation
	table   *relation.Table // rel.Data(): the concrete window hot loops use
	cols    []int
	domains map[int]Domain
	// The Box kernel's view of the columns: sorted holds them ascending
	// (a Box's ordinals), doms their domains, and cont marks the
	// continuous ones.
	sorted []int
	doms   []Domain
	cont   uint64
}

// NewSpace builds the search space over the named attributes of rel,
// measuring each attribute's domain over the given rows (local ids; all
// rows if set is nil).
func NewSpace(rel relation.Relation, attrs []string, rows *relation.RowSet) (*Space, error) {
	s := &Space{rel: rel, table: rel.Data(), domains: make(map[int]Domain, len(attrs))}
	for _, name := range attrs {
		col, ok := rel.Schema().Index(name)
		if !ok {
			return nil, fmt.Errorf("predicate: no attribute %q in schema", name)
		}
		s.cols = append(s.cols, col)
		if rel.Schema().Column(col).Kind == relation.Continuous {
			st := rel.FloatStats(col, rows)
			if st.Count == 0 {
				st.Min, st.Max = 0, 0
			}
			s.domains[col] = Domain{Lo: st.Min, Hi: st.Max}
		} else {
			s.domains[col] = Domain{Card: rel.Dict(col).Len()}
		}
	}
	for col := range s.domains {
		s.sorted = append(s.sorted, col)
	}
	sort.Ints(s.sorted)
	for k, col := range s.sorted {
		s.doms = append(s.doms, s.domains[col])
		if k < 64 && s.Kind(col) == relation.Continuous {
			s.cont |= 1 << uint(k)
		}
	}
	return s, nil
}

// Table returns the concrete columnar window the space is defined over
// (the table itself, or a view's zero-copy sub-table). Row ids are local.
func (s *Space) Table() *relation.Table { return s.table }

// Relation returns the relation the space was built over.
func (s *Space) Relation() relation.Relation { return s.rel }

// AttrNames returns the names of the space's attributes in column order —
// what a shard coordinator needs to rebuild the same space over a view.
func (s *Space) AttrNames() []string {
	out := make([]string, len(s.cols))
	for i, c := range s.cols {
		out[i] = s.Name(c)
	}
	return out
}

// Columns returns the column indexes of the space's attributes.
func (s *Space) Columns() []int { return s.cols }

// Domain returns the domain of the given column, if it is in the space.
func (s *Space) Domain(col int) (Domain, bool) {
	d, ok := s.domains[col]
	return d, ok
}

// Kind returns the kind of the given column.
func (s *Space) Kind(col int) relation.Kind { return s.table.Schema().Column(col).Kind }

// Name returns the name of the given column.
func (s *Space) Name(col int) string { return s.table.Schema().Column(col).Name }

// FullClause returns a clause spanning the entire domain of col: the full
// closed range for continuous attributes, or all dictionary codes for
// discrete ones.
func (s *Space) FullClause(col int) Clause {
	d := s.domains[col]
	if s.Kind(col) == relation.Continuous {
		return NewRangeClause(col, s.Name(col), d.Lo, d.Hi, true)
	}
	codes := make([]int32, d.Card)
	for i := range codes {
		codes[i] = int32(i)
	}
	return NewSetClause(col, s.Name(col), codes)
}

// Adjacent reports whether two predicates are adjacent in this space and can
// be merged by the Merger: on every continuous attribute constrained by both,
// the ranges overlap or touch within eps; attributes constrained by only one
// predicate span the full domain on the other side and are always adjacent;
// discrete clauses never block adjacency (their union is always valid).
func (s *Space) Adjacent(p, q Predicate, eps float64) bool {
	for _, pc := range p.Clauses() {
		if pc.Kind != relation.Continuous {
			continue
		}
		qc, ok := q.ClauseOn(pc.Col)
		if !ok {
			continue
		}
		if pc.Lo-eps > qc.Hi || qc.Lo-eps > pc.Hi {
			return false
		}
	}
	return true
}
