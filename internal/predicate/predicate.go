// Package predicate implements Scorpion's explanation language: conjunctions
// of range clauses over continuous attributes and set-containment clauses
// over discrete attributes, with at most one clause per attribute (§3.1 of
// the paper).
//
// Predicates are immutable values. All operations (intersection,
// bounding-box merge, containment, evaluation) return new predicates or
// derived data. Discrete clauses hold dictionary codes of one specific base
// table; a predicate is only meaningful against the table whose dictionaries
// coded it.
package predicate

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/scorpiondb/scorpion/internal/relation"
)

// Clause constrains a single attribute. Exactly one of the range fields
// (continuous) or Values (discrete) is meaningful, according to Kind.
//
// Continuous clauses match Lo <= v < Hi, or Lo <= v <= Hi when HiInc is set.
// Discrete clauses match rows whose code appears in Values (sorted).
type Clause struct {
	Col    int // column index in the base table's schema
	Name   string
	Kind   relation.Kind
	Lo     float64
	Hi     float64
	HiInc  bool
	Values []int32
}

// NewRangeClause builds a continuous clause. It panics if lo > hi.
func NewRangeClause(col int, name string, lo, hi float64, hiInc bool) Clause {
	if lo > hi {
		panic(fmt.Sprintf("predicate: empty range [%v,%v)", lo, hi))
	}
	return Clause{Col: col, Name: name, Kind: relation.Continuous, Lo: lo, Hi: hi, HiInc: hiInc}
}

// NewSetClause builds a discrete clause over the given codes. The codes are
// copied, de-duplicated and sorted.
func NewSetClause(col int, name string, codes []int32) Clause {
	vs := make([]int32, len(codes))
	copy(vs, codes)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	// De-duplicate in place.
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != vs[i-1] {
			out = append(out, v)
		}
	}
	return Clause{Col: col, Name: name, Kind: relation.Discrete, Values: out}
}

// matchCode reports whether the discrete clause admits the code.
func (c *Clause) matchCode(code int32) bool {
	lo, hi := 0, len(c.Values)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.Values[mid] < code {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(c.Values) && c.Values[lo] == code
}

// MatchMask tests the n consecutive rows [lo, lo+n) of t, 1 <= n <= 64,
// against the clause on its column slice and returns the matches as a
// bitmask: bit i is set when row lo+i satisfies the clause. It is the one
// row test: Predicate.Match and Eval run through it.
func (c *Clause) MatchMask(t *relation.Table, lo, n int) uint64 {
	var m uint64
	if c.Kind != relation.Continuous {
		for i, code := range t.Codes(c.Col)[lo : lo+n] {
			if c.matchCode(code) {
				m |= 1 << uint(i)
			}
		}
		return m
	}
	// Both bounds are tested without a data-dependent branch. A NaN, in the
	// row or in a bound, fails each comparison, so a clause with a NaN bound
	// admits no row.
	vals := t.Floats(c.Col)[lo : lo+n]
	cl, ch := c.Lo, c.Hi
	if c.HiInc {
		for i, v := range vals {
			var a, b uint64
			if v >= cl {
				a = 1
			}
			if v <= ch {
				b = 1
			}
			m |= (a & b) << uint(i)
		}
		return m
	}
	for i, v := range vals {
		var a, b uint64
		if v >= cl {
			a = 1
		}
		if v < ch {
			b = 1
		}
		m |= (a & b) << uint(i)
	}
	return m
}

// isEmptyRange reports whether the continuous clause can match nothing.
func (c Clause) isEmptyRange() bool {
	return c.Lo > c.Hi || (c.Lo == c.Hi && !c.HiInc)
}

// Predicate is a conjunction of clauses, at most one per attribute, kept
// sorted by column index. The zero Predicate has no clauses and matches
// every row.
type Predicate struct {
	clauses []Clause
	// key boxes the canonical fingerprint. It is built on the first Key()
	// call, not at construction — most predicates a search builds are
	// scored and dropped without anyone looking their key up — and the box
	// is shared by copies of the value, so it is built once per predicate,
	// not once per copy, and any goroutine may ask for it. nil only for the
	// zero value (True), whose key is "".
	key *lazyKey
}

// lazyKey holds a predicate's fingerprint once some caller has asked for
// it. The string is a plain field behind a sync.Once (not an atomic
// pointer) so that two equal predicates whose keys were both built stay
// reflect.DeepEqual.
type lazyKey struct {
	once sync.Once
	s    string
}

// newPredicate wraps sorted clauses.
func newPredicate(clauses []Clause) Predicate {
	return Predicate{clauses: clauses, key: new(lazyKey)}
}

// True returns the empty predicate, which matches all rows.
func True() Predicate { return Predicate{} }

// New builds a predicate from clauses. It returns an error if two clauses
// name the same column.
func New(clauses ...Clause) (Predicate, error) {
	cs := make([]Clause, len(clauses))
	copy(cs, clauses)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Col < cs[j].Col })
	for i := 1; i < len(cs); i++ {
		if cs[i].Col == cs[i-1].Col {
			return Predicate{}, fmt.Errorf("predicate: duplicate clause on column %q", cs[i].Name)
		}
	}
	return newPredicate(cs), nil
}

// MustNew is New that panics on error.
func MustNew(clauses ...Clause) Predicate {
	p, err := New(clauses...)
	if err != nil {
		panic(err)
	}
	return p
}

// Clauses returns the predicate's clauses in column order (shared slice;
// treat as read-only).
func (p Predicate) Clauses() []Clause { return p.clauses }

// NumClauses reports the number of clauses.
func (p Predicate) NumClauses() int { return len(p.clauses) }

// IsTrue reports whether the predicate matches everything (no clauses).
func (p Predicate) IsTrue() bool { return len(p.clauses) == 0 }

// ClauseOn returns the clause on the given column, if any.
func (p Predicate) ClauseOn(col int) (Clause, bool) {
	i := sort.Search(len(p.clauses), func(i int) bool { return p.clauses[i].Col >= col })
	if i < len(p.clauses) && p.clauses[i].Col == col {
		return p.clauses[i], true
	}
	return Clause{}, false
}

// Columns returns the column indexes constrained by the predicate, ascending.
func (p Predicate) Columns() []int {
	out := make([]int, len(p.clauses))
	for i, c := range p.clauses {
		out[i] = c.Col
	}
	return out
}

// Match reports whether row r of table t satisfies the predicate: MatchMask
// on the one-row window at r.
func (p Predicate) Match(t *relation.Table, r int) bool {
	return p.MatchMask(t, r, 1) != 0
}

// MatchMask tests the n consecutive rows [lo, lo+n) of t, 1 <= n <= 64,
// against the predicate and returns the matches as a bitmask: bit i is set
// when row lo+i satisfies every clause. Each clause runs down its own column
// slice, so nothing is looked up per row, and a window no row of which
// survives a clause skips the rest.
func (p Predicate) MatchMask(t *relation.Table, lo, n int) uint64 {
	m := ^uint64(0) >> uint(64-n)
	for i := range p.clauses {
		if m &= p.clauses[i].MatchMask(t, lo, n); m == 0 {
			break
		}
	}
	return m
}

// forEachMask calls fn with the match mask of every window of at most 64
// consecutive rows of universe (or of the whole table when universe is
// nil), in ascending row order; windows without a match are skipped.
func (p Predicate) forEachMask(t *relation.Table, universe *relation.RowSet, fn func(lo int, m uint64)) {
	run := func(lo, hi int) {
		for ; lo < hi; lo += 64 {
			if m := p.MatchMask(t, lo, min(64, hi-lo)); m != 0 {
				fn(lo, m)
			}
		}
	}
	if universe == nil {
		run(0, t.NumRows())
		return
	}
	universe.ForEachRun(run)
}

// Eval returns the rows of universe (or the whole table when universe is
// nil) that satisfy the predicate.
func (p Predicate) Eval(t *relation.Table, universe *relation.RowSet) *relation.RowSet {
	out := relation.NewRowSet(t.NumRows())
	p.forEachMask(t, universe, func(lo int, m uint64) {
		for ; m != 0; m &= m - 1 {
			out.Add(lo + bits.TrailingZeros64(m))
		}
	})
	return out
}

// Intersect conjoins two predicates. The second result is false when the
// intersection is syntactically empty (some shared attribute has
// incompatible clauses).
func (p Predicate) Intersect(o Predicate) (Predicate, bool) {
	out := make([]Clause, 0, len(p.clauses)+len(o.clauses))
	i, j := 0, 0
	for i < len(p.clauses) && j < len(o.clauses) {
		a, b := p.clauses[i], o.clauses[j]
		switch {
		case a.Col < b.Col:
			out = append(out, a)
			i++
		case a.Col > b.Col:
			out = append(out, b)
			j++
		default:
			m, ok := intersectClauses(a, b)
			if !ok {
				return Predicate{}, false
			}
			out = append(out, m)
			i++
			j++
		}
	}
	out = append(out, p.clauses[i:]...)
	out = append(out, o.clauses[j:]...)
	return newPredicate(out), true
}

func intersectClauses(a, b Clause) (Clause, bool) {
	if a.Kind != b.Kind {
		panic(fmt.Sprintf("predicate: kind mismatch on column %q", a.Name))
	}
	if a.Kind == relation.Continuous {
		m := a
		if b.Lo > m.Lo {
			m.Lo = b.Lo
		}
		if b.Hi < m.Hi {
			m.Hi, m.HiInc = b.Hi, b.HiInc
		} else if b.Hi == m.Hi {
			m.HiInc = m.HiInc && b.HiInc
		}
		if m.isEmptyRange() {
			return Clause{}, false
		}
		return m, true
	}
	// Discrete: sorted intersection.
	vals := make([]int32, 0, min(len(a.Values), len(b.Values)))
	i, j := 0, 0
	for i < len(a.Values) && j < len(b.Values) {
		switch {
		case a.Values[i] < b.Values[j]:
			i++
		case a.Values[i] > b.Values[j]:
			j++
		default:
			vals = append(vals, a.Values[i])
			i++
			j++
		}
	}
	if len(vals) == 0 {
		return Clause{}, false
	}
	m := a
	m.Values = vals
	return m, true
}

// Merge computes the minimum bounding predicate of p and o (§4.3): ranges
// take the bounding interval, discrete sets take the union. An attribute
// constrained by only one of the two is unconstrained in the result, because
// the other predicate spans that attribute's full domain.
func (p Predicate) Merge(o Predicate) Predicate {
	out := make([]Clause, 0, min(len(p.clauses), len(o.clauses)))
	i, j := 0, 0
	for i < len(p.clauses) && j < len(o.clauses) {
		a, b := p.clauses[i], o.clauses[j]
		switch {
		case a.Col < b.Col:
			i++
		case a.Col > b.Col:
			j++
		default:
			out = append(out, mergeClauses(a, b))
			i++
			j++
		}
	}
	return newPredicate(out)
}

func mergeClauses(a, b Clause) Clause {
	if a.Kind != b.Kind {
		panic(fmt.Sprintf("predicate: kind mismatch on column %q", a.Name))
	}
	if a.Kind == relation.Continuous {
		m := a
		if b.Lo < m.Lo {
			m.Lo = b.Lo
		}
		if b.Hi > m.Hi {
			m.Hi, m.HiInc = b.Hi, b.HiInc
		} else if b.Hi == m.Hi {
			m.HiInc = m.HiInc || b.HiInc
		}
		return m
	}
	// Discrete: sorted union.
	vals := make([]int32, 0, len(a.Values)+len(b.Values))
	i, j := 0, 0
	for i < len(a.Values) || j < len(b.Values) {
		switch {
		case j >= len(b.Values) || (i < len(a.Values) && a.Values[i] < b.Values[j]):
			vals = append(vals, a.Values[i])
			i++
		case i >= len(a.Values) || a.Values[i] > b.Values[j]:
			vals = append(vals, b.Values[j])
			j++
		default:
			vals = append(vals, a.Values[i])
			i++
			j++
		}
	}
	m := a
	m.Values = vals
	return m
}

// Equal reports whether two predicates have identical clauses.
func (p Predicate) Equal(o Predicate) bool {
	if len(p.clauses) != len(o.clauses) {
		return false
	}
	for i := range p.clauses {
		a, b := p.clauses[i], o.clauses[i]
		if a.Col != b.Col || a.Kind != b.Kind {
			return false
		}
		if a.Kind == relation.Continuous {
			if a.Lo != b.Lo || a.Hi != b.Hi || a.HiInc != b.HiInc {
				return false
			}
		} else {
			if len(a.Values) != len(b.Values) {
				return false
			}
			for k := range a.Values {
				if a.Values[k] != b.Values[k] {
					return false
				}
			}
		}
	}
	return true
}

// Key returns a canonical string usable as a map key for de-duplication.
// The fingerprint is built on the first call and kept, so the callers that
// look keys up repeatedly — candidate de-duplication, the Merger's classes,
// obs labels — pay the string build once and a pointer read afterwards.
func (p Predicate) Key() string {
	if p.key == nil {
		// Zero-value predicates (True) never went through a constructor;
		// their key is the empty clause list's rendering.
		return buildKey(p.clauses)
	}
	p.key.once.Do(func() { p.key.s = buildKey(p.clauses) })
	return p.key.s
}

// buildKey renders the canonical fingerprint of a sorted clause list:
// "col:[lo,hi,hiInc];" per continuous clause, "col:{v0,v1,...,};" per
// discrete clause.
func buildKey(clauses []Clause) string {
	var b strings.Builder
	for _, c := range clauses {
		b.WriteString(strconv.Itoa(c.Col))
		if c.Kind == relation.Continuous {
			b.WriteString(":[")
			b.WriteString(strconv.FormatFloat(c.Lo, 'g', -1, 64))
			b.WriteByte(',')
			b.WriteString(strconv.FormatFloat(c.Hi, 'g', -1, 64))
			b.WriteByte(',')
			b.WriteString(strconv.FormatBool(c.HiInc))
			b.WriteString("];")
		} else {
			b.WriteString(":{")
			for _, v := range c.Values {
				b.WriteString(strconv.FormatInt(int64(v), 10))
				b.WriteByte(',')
			}
			b.WriteString("};")
		}
	}
	return b.String()
}

// String renders the predicate with dictionary codes (use Format for
// human-readable discrete values).
func (p Predicate) String() string {
	if p.IsTrue() {
		return "true"
	}
	parts := make([]string, len(p.clauses))
	for i, c := range p.clauses {
		if c.Kind == relation.Continuous {
			hi := "<"
			if c.HiInc {
				hi = "<="
			}
			parts[i] = fmt.Sprintf("%.4g <= %s %s %.4g", c.Lo, c.Name, hi, c.Hi)
		} else {
			vals := make([]string, len(c.Values))
			for j, v := range c.Values {
				vals[j] = fmt.Sprintf("#%d", v)
			}
			parts[i] = fmt.Sprintf("%s in (%s)", c.Name, strings.Join(vals, ", "))
		}
	}
	return strings.Join(parts, " and ")
}

// Format renders the predicate with discrete codes resolved through the
// table's dictionaries.
func (p Predicate) Format(t *relation.Table) string {
	if p.IsTrue() {
		return "true"
	}
	parts := make([]string, len(p.clauses))
	for i, c := range p.clauses {
		if c.Kind == relation.Continuous {
			hi := "<"
			if c.HiInc {
				hi = "<="
			}
			parts[i] = fmt.Sprintf("%.4g <= %s %s %.4g", c.Lo, c.Name, hi, c.Hi)
		} else {
			dict := t.Dict(c.Col)
			vals := make([]string, len(c.Values))
			for j, v := range c.Values {
				vals[j] = fmt.Sprintf("'%s'", dict.Value(v))
			}
			parts[i] = fmt.Sprintf("%s in (%s)", c.Name, strings.Join(vals, ", "))
		}
	}
	return strings.Join(parts, " and ")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
