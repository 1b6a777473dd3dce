package relation

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
	"unsafe"
)

// RowSet is a set of row indices over a fixed universe [0, N). It is the
// unit of provenance: input groups, predicate matches, and samples are all
// RowSets over the same base table.
//
// A RowSet is not one data structure but a small family of encodings behind
// one type, selected automatically as the set is built and mutated:
//
//   - sparse: a sorted []int32 of members — tiny sets (sample strata,
//     escalated candidates) cost 4 bytes per row.
//   - runs:   sorted disjoint half-open [lo,hi) spans — group-contiguous
//     provenance (the shape GROUP BY-ordered tables produce) costs 8 bytes
//     per run regardless of how many rows each run covers.
//   - dense:  the fixed-universe bitmap — high-entropy sets cost N/8 bytes
//     like they always did, and never more.
//
// Selection heuristics (see maxRuns): a set starts sparse, converts to runs
// past sparseMaxLen members, and converts to dense once its run count would
// make the spans cost more than the bitmap. Every operation is defined
// across all encoding pairs; Slice is O(#runs) offset arithmetic for the
// compact encodings, so id translation from a table to its Views never
// copies bitmap words unless the set really is dense. Grow, which widens a
// set over an appended tail (and so maps window-local rows back to global
// ids), shares the run array it grows from, so a batch costs its own runs,
// not the set's history.
//
// All read-only methods (Contains, Count, ForEach, ForEachRun, Rows,
// Equal, Intersect, Slice, Grow, Min, Max) never change the
// receiver and are safe for concurrent readers; the mutating methods (Add,
// AddRange, And, Or) are not.
type RowSet struct {
	n     int
	enc   uint8
	words []uint64 // dense: (n+63)/64 words, trailing bits clear
	runs  []span   // runs: sorted, disjoint, non-adjacent, each lo < hi
	elems []int32  // sparse: sorted, strictly increasing
	// claim is non-nil when runs may share its backing array with other
	// sets (Grow's results); a mutation copies the runs first.
	claim *runClaim
}

// runClaim is shared by the sets whose runs view one backing array: it
// holds the longest prefix of the array any of them has claimed. The set
// whose length equals the claim owns the array's last element, so it alone
// may append into the spare capacity past it; any other set copies first.
type runClaim struct{ n atomic.Int32 }

// Encoding discriminants. The zero value is sparse so that the zero RowSet
// (universe 0, no storage) is valid.
const (
	encSparse uint8 = iota
	encRuns
	encDense
)

// span is one half-open run [lo, hi) of consecutive member rows.
type span struct{ lo, hi int32 }

const (
	// sparseMaxLen is the largest member count kept in the sorted-array
	// encoding: at 4 bytes per member vs 8 per run, sparse wins below two
	// members per run, and keeping it small bounds the O(len) cost of
	// out-of-order inserts.
	sparseMaxLen = 64
	// runsFloor and runsCeil clamp the run budget: the floor keeps tiny
	// universes from flapping to dense on their first few gaps, and the
	// ceiling (8192 runs = 64 KiB of spans) bounds the O(#runs) memmove
	// cost of pathological out-of-order construction.
	runsFloor = 8
	runsCeil  = 8192
)

// maxRuns is a universe's run budget: past n/64 runs the 8-byte spans cost
// more than the n/8-byte bitmap, so the set re-encodes dense.
func maxRuns(n int) int {
	r := n / 64
	if r < runsFloor {
		r = runsFloor
	}
	if r > runsCeil {
		r = runsCeil
	}
	return r
}

// compressible reports whether a universe fits the int32-based compact
// encodings. Universes beyond 2^31 rows are dense-only.
func compressible(n int) bool { return n <= math.MaxInt32 }

// NewRowSet returns an empty set over the universe [0, n). It starts in the
// sparse encoding (no storage at all) and adapts as members arrive.
func NewRowSet(n int) *RowSet {
	if n < 0 {
		panic("relation: negative RowSet universe")
	}
	if !compressible(n) {
		return &RowSet{n: n, enc: encDense, words: make([]uint64, (n+63)/64)}
	}
	return &RowSet{n: n, enc: encSparse}
}

// NewDenseRowSet returns an empty set pinned to the dense bitmap encoding.
// Every mutating method keeps it dense; it exists so benchmarks can
// measure the fixed-bitmap baseline the adaptive encodings replaced.
func NewDenseRowSet(n int) *RowSet {
	if n < 0 {
		panic("relation: negative RowSet universe")
	}
	return &RowSet{n: n, enc: encDense, words: make([]uint64, (n+63)/64)}
}

// FullRowSet returns the set containing every row in [0, n) — a single run.
func FullRowSet(n int) *RowSet {
	s := NewRowSet(n)
	s.AddRange(0, n)
	return s
}

// RowSetOf returns a set over [0, n) containing exactly the given rows.
func RowSetOf(n int, rows ...int) *RowSet {
	s := NewRowSet(n)
	for _, r := range rows {
		s.Add(r)
	}
	return s
}

// Universe reports the size of the universe (not the cardinality).
func (s *RowSet) Universe() int { return s.n }

// Encoding reports the set's current representation: "sparse", "runs", or
// "dense". Observability only — callers must not branch on it for
// correctness.
func (s *RowSet) Encoding() string {
	switch s.enc {
	case encRuns:
		return "runs"
	case encDense:
		return "dense"
	default:
		return "sparse"
	}
}

// MemBytes reports the set's approximate heap footprint: the struct header
// plus the capacity of whichever backing array the encoding uses. This is
// the number the BENCH_memory lane tracks per provenance row.
func (s *RowSet) MemBytes() int {
	return int(unsafe.Sizeof(*s)) + cap(s.words)*8 + cap(s.runs)*8 + cap(s.elems)*4
}

// trim clears bits beyond the universe in the last word (dense only).
func (s *RowSet) trim() {
	if s.n%64 != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (uint64(1) << uint(s.n%64)) - 1
	}
}

// adapt applies the representation heuristics after a mutation.
func (s *RowSet) adapt() {
	switch s.enc {
	case encSparse:
		if len(s.elems) > sparseMaxLen {
			s.toRuns()
			if len(s.runs) > maxRuns(s.n) {
				s.toDense()
			}
		}
	case encRuns:
		if len(s.runs) > maxRuns(s.n) {
			s.toDense()
		}
	}
}

// toDense re-encodes the set as a bitmap, preserving membership.
func (s *RowSet) toDense() {
	if s.enc == encDense {
		return
	}
	words := make([]uint64, (s.n+63)/64)
	if s.enc == encSparse {
		for _, e := range s.elems {
			words[e>>6] |= 1 << uint(e&63)
		}
	} else {
		for _, r := range s.runs {
			setWordRange(words, int(r.lo), int(r.hi))
		}
	}
	s.words, s.runs, s.elems, s.enc, s.claim = words, nil, nil, encDense, nil
}

// toRuns re-encodes the set as spans, preserving membership. The caller is
// responsible for the run budget (adapt enforces it on the public paths).
func (s *RowSet) toRuns() {
	switch s.enc {
	case encRuns:
		return
	case encSparse:
		var runs []span
		for _, e := range s.elems {
			if k := len(runs); k > 0 && runs[k-1].hi == e {
				runs[k-1].hi++
			} else {
				runs = append(runs, span{e, e + 1})
			}
		}
		s.runs, s.elems, s.words, s.enc, s.claim = runs, nil, nil, encRuns, nil
	default: // dense
		var runs []span
		it := s.iter()
		for {
			lo, hi, ok := it.next()
			if !ok {
				break
			}
			runs = append(runs, span{int32(lo), int32(hi)})
		}
		s.runs, s.elems, s.words, s.enc, s.claim = runs, nil, nil, encRuns, nil
	}
}

// toSparse re-encodes the set as a sorted member array, preserving
// membership. Test/fuzz plumbing — production paths only shrink to sparse
// through the set builder, which checks the cardinality first.
func (s *RowSet) toSparse() {
	if s.enc == encSparse {
		return
	}
	elems := make([]int32, 0, s.Count())
	s.ForEach(func(r int) { elems = append(elems, int32(r)) })
	s.elems, s.runs, s.words, s.enc, s.claim = elems, nil, nil, encSparse, nil
}

// own gives s a run array of its own before an in-place edit: one that Grow
// shares with other sets is copied first.
func (s *RowSet) own() {
	if s.claim != nil {
		s.runs, s.claim = slices.Clone(s.runs), nil
	}
}

// Add inserts row i. It panics if i is outside the universe.
func (s *RowSet) Add(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("relation: row %d outside universe [0,%d)", i, s.n))
	}
	switch s.enc {
	case encDense:
		s.words[i>>6] |= 1 << uint(i&63)
	case encSparse:
		s.addSparse(int32(i))
	case encRuns:
		s.addRuns(int32(i))
	}
}

func (s *RowSet) addSparse(r int32) {
	k := len(s.elems)
	// Fast path: ascending construction appends.
	if k == 0 || r > s.elems[k-1] {
		s.elems = append(s.elems, r)
		s.adapt()
		return
	}
	j := sort.Search(k, func(i int) bool { return s.elems[i] >= r })
	if j < k && s.elems[j] == r {
		return
	}
	s.elems = append(s.elems, 0)
	copy(s.elems[j+1:], s.elems[j:])
	s.elems[j] = r
	s.adapt()
}

func (s *RowSet) addRuns(r int32) {
	s.own()
	k := len(s.runs)
	// Fast path: ascending construction extends or appends the tail run.
	if k == 0 || r >= s.runs[k-1].hi {
		if k > 0 && r == s.runs[k-1].hi {
			s.runs[k-1].hi++
			return
		}
		s.runs = append(s.runs, span{r, r + 1})
		s.adapt()
		return
	}
	// j: first run with hi > r.
	j := sort.Search(k, func(i int) bool { return s.runs[i].hi > r })
	if r >= s.runs[j].lo {
		return // already present
	}
	if r == s.runs[j].lo-1 {
		s.runs[j].lo--
		if j > 0 && s.runs[j-1].hi == s.runs[j].lo {
			// Bridged the gap: merge runs j-1 and j.
			s.runs[j-1].hi = s.runs[j].hi
			s.runs = append(s.runs[:j], s.runs[j+1:]...)
		}
		return
	}
	if j > 0 && s.runs[j-1].hi == r {
		s.runs[j-1].hi++
		return
	}
	s.runs = append(s.runs, span{})
	copy(s.runs[j+1:], s.runs[j:])
	s.runs[j] = span{r, r + 1}
	s.adapt()
}

// AddRange inserts every row in [lo, hi). It panics unless
// 0 <= lo <= hi <= Universe().
func (s *RowSet) AddRange(lo, hi int) {
	if lo < 0 || hi < lo || hi > s.n {
		panic(fmt.Sprintf("relation: AddRange [%d,%d) outside universe [0,%d)", lo, hi, s.n))
	}
	if lo == hi {
		return
	}
	switch s.enc {
	case encDense:
		setWordRange(s.words, lo, hi)
	case encSparse:
		if hi-lo == 1 {
			s.addSparse(int32(lo))
			return
		}
		s.toRuns()
		s.addRangeRuns(int32(lo), int32(hi))
		s.adapt()
	case encRuns:
		s.addRangeRuns(int32(lo), int32(hi))
		s.adapt()
	}
}

// addRangeRuns merges the span [lo, hi) into the run list.
func (s *RowSet) addRangeRuns(lo, hi int32) {
	s.own()
	// i: first run that overlaps or is left-adjacent to [lo, hi).
	i := sort.Search(len(s.runs), func(k int) bool { return s.runs[k].hi >= lo })
	// j: first run past the overlap/right-adjacency.
	j := i
	for j < len(s.runs) && s.runs[j].lo <= hi {
		j++
	}
	if i == j {
		s.runs = append(s.runs, span{})
		copy(s.runs[i+1:], s.runs[i:])
		s.runs[i] = span{lo, hi}
		return
	}
	if s.runs[i].lo < lo {
		lo = s.runs[i].lo
	}
	if s.runs[j-1].hi > hi {
		hi = s.runs[j-1].hi
	}
	s.runs[i] = span{lo, hi}
	s.runs = append(s.runs[:i+1], s.runs[j:]...)
}

// Contains reports whether row i is in the set.
func (s *RowSet) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	switch s.enc {
	case encDense:
		return s.words[i>>6]&(1<<uint(i&63)) != 0
	case encSparse:
		r := int32(i)
		j := sort.Search(len(s.elems), func(k int) bool { return s.elems[k] >= r })
		return j < len(s.elems) && s.elems[j] == r
	default:
		r := int32(i)
		j := sort.Search(len(s.runs), func(k int) bool { return s.runs[k].hi > r })
		return j < len(s.runs) && r >= s.runs[j].lo
	}
}

// Count returns the cardinality of the set.
func (s *RowSet) Count() int {
	switch s.enc {
	case encDense:
		c := 0
		for _, w := range s.words {
			c += bits.OnesCount64(w)
		}
		return c
	case encSparse:
		return len(s.elems)
	default:
		c := 0
		for _, r := range s.runs {
			c += int(r.hi - r.lo)
		}
		return c
	}
}

// IsEmpty reports whether the set has no rows.
func (s *RowSet) IsEmpty() bool {
	switch s.enc {
	case encDense:
		for _, w := range s.words {
			if w != 0 {
				return false
			}
		}
		return true
	case encSparse:
		return len(s.elems) == 0
	default:
		return len(s.runs) == 0
	}
}

// Min returns the smallest member, or -1 when the set is empty. O(1) for
// the compact encodings.
func (s *RowSet) Min() int {
	switch s.enc {
	case encSparse:
		if len(s.elems) == 0 {
			return -1
		}
		return int(s.elems[0])
	case encRuns:
		if len(s.runs) == 0 {
			return -1
		}
		return int(s.runs[0].lo)
	default:
		for wi, w := range s.words {
			if w != 0 {
				return wi<<6 + bits.TrailingZeros64(w)
			}
		}
		return -1
	}
}

// Max returns the largest member, or -1 when the set is empty. O(1) for the
// compact encodings.
func (s *RowSet) Max() int {
	switch s.enc {
	case encSparse:
		if len(s.elems) == 0 {
			return -1
		}
		return int(s.elems[len(s.elems)-1])
	case encRuns:
		if len(s.runs) == 0 {
			return -1
		}
		return int(s.runs[len(s.runs)-1].hi) - 1
	default:
		for wi := len(s.words) - 1; wi >= 0; wi-- {
			if w := s.words[wi]; w != 0 {
				return wi<<6 + 63 - bits.LeadingZeros64(w)
			}
		}
		return -1
	}
}

// Clone returns an independent copy in the same encoding.
func (s *RowSet) Clone() *RowSet {
	c := &RowSet{n: s.n, enc: s.enc}
	switch s.enc {
	case encDense:
		c.words = append([]uint64(nil), s.words...)
		if c.words == nil && s.n > 0 {
			c.words = make([]uint64, (s.n+63)/64)
		}
	case encRuns:
		c.runs = append([]span(nil), s.runs...)
	case encSparse:
		c.elems = append([]int32(nil), s.elems...)
	}
	return c
}

func (s *RowSet) checkUniverse(o *RowSet) {
	if s.n != o.n {
		panic(fmt.Sprintf("relation: RowSet universe mismatch %d != %d", s.n, o.n))
	}
}

// runIter walks a set's maximal runs in ascending order. It snapshots the
// backing arrays at creation, so the underlying set may be re-encoded while
// an iterator built earlier is still draining.
type runIter struct {
	enc   uint8
	words []uint64
	runs  []span
	elems []int32
	i     int // runs/elems cursor
	pos   int // dense bit cursor
}

func (s *RowSet) iter() runIter {
	return runIter{enc: s.enc, words: s.words, runs: s.runs, elems: s.elems}
}

// seek skips the runs that end at or before from; the next run may still
// start before from.
func (it *runIter) seek(from int) {
	if from <= 0 {
		return
	}
	switch it.enc {
	case encRuns:
		it.i = sort.Search(len(it.runs), func(k int) bool { return int(it.runs[k].hi) > from })
	case encSparse:
		it.i = sort.Search(len(it.elems), func(k int) bool { return int(it.elems[k]) >= from })
	default:
		it.pos = from
	}
}

func (it *runIter) next() (lo, hi int, ok bool) {
	switch it.enc {
	case encRuns:
		if it.i >= len(it.runs) {
			return 0, 0, false
		}
		r := it.runs[it.i]
		it.i++
		return int(r.lo), int(r.hi), true
	case encSparse:
		if it.i >= len(it.elems) {
			return 0, 0, false
		}
		lo = int(it.elems[it.i])
		hi = lo + 1
		it.i++
		for it.i < len(it.elems) && int(it.elems[it.i]) == hi {
			hi++
			it.i++
		}
		return lo, hi, true
	default: // dense
		nw := len(it.words)
		wi := it.pos >> 6
		if wi >= nw {
			return 0, 0, false
		}
		w := it.words[wi] & (^uint64(0) << uint(it.pos&63))
		for w == 0 {
			wi++
			if wi >= nw {
				return 0, 0, false
			}
			w = it.words[wi]
		}
		lo = wi<<6 + bits.TrailingZeros64(w)
		// Find the first clear bit after lo. Trailing garbage bits past the
		// universe are zero (trim), so the scan stops at or before n.
		wj := lo >> 6
		for {
			if wj >= nw {
				hi = nw << 6
				break
			}
			inv := ^it.words[wj]
			if wj == lo>>6 {
				inv &= ^uint64(0) << uint(lo&63)
			}
			if inv != 0 {
				hi = wj<<6 + bits.TrailingZeros64(inv)
				break
			}
			wj++
		}
		it.pos = hi
		return lo, hi, true
	}
}

// setBuilder accumulates ascending, disjoint runs and freezes them into
// whichever encoding the heuristics pick: sparse for tiny results, runs
// while under the universe's run budget, spilling to dense the moment the
// budget is exceeded (so a high-entropy result never materializes a huge
// span list first).
type setBuilder struct {
	n      int
	cnt    int
	budget int
	runs   []span
	words  []uint64 // non-nil once spilled to dense
}

func newSetBuilder(n int) setBuilder {
	b := setBuilder{n: n, budget: maxRuns(n)}
	if !compressible(n) {
		b.words = make([]uint64, (n+63)/64)
	}
	return b
}

// add appends the run [lo, hi); calls must arrive in ascending order with
// lo at or past the previous hi (adjacent runs are coalesced).
func (b *setBuilder) add(lo, hi int) {
	if hi <= lo {
		return
	}
	b.cnt += hi - lo
	if b.words != nil {
		setWordRange(b.words, lo, hi)
		return
	}
	if k := len(b.runs); k > 0 && int(b.runs[k-1].hi) == lo {
		b.runs[k-1].hi = int32(hi)
		return
	}
	if len(b.runs) >= b.budget {
		b.words = make([]uint64, (b.n+63)/64)
		for _, r := range b.runs {
			setWordRange(b.words, int(r.lo), int(r.hi))
		}
		b.runs = nil
		setWordRange(b.words, lo, hi)
		return
	}
	b.runs = append(b.runs, span{int32(lo), int32(hi)})
}

// store writes the built set into dst, replacing its contents.
func (b *setBuilder) store(dst *RowSet) {
	dst.n = b.n
	dst.words, dst.runs, dst.elems, dst.claim = nil, nil, nil, nil
	switch {
	case b.words != nil:
		dst.enc, dst.words = encDense, b.words
	case b.cnt <= sparseMaxLen:
		elems := make([]int32, 0, b.cnt)
		for _, r := range b.runs {
			for e := r.lo; e < r.hi; e++ {
				elems = append(elems, e)
			}
		}
		dst.enc, dst.elems = encSparse, elems
	default:
		dst.enc, dst.runs = encRuns, b.runs
	}
}

// setWordRange sets bits [lo, hi) in a bitmap.
func setWordRange(words []uint64, lo, hi int) {
	if hi <= lo {
		return
	}
	wLo, wHi := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if wLo == wHi {
		words[wLo] |= loMask & hiMask
		return
	}
	words[wLo] |= loMask
	for w := wLo + 1; w < wHi; w++ {
		words[w] = ^uint64(0)
	}
	words[wHi] |= hiMask
}

// clearWordRange clears bits [lo, hi) in a bitmap.
func clearWordRange(words []uint64, lo, hi int) {
	if hi <= lo {
		return
	}
	wLo, wHi := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if wLo == wHi {
		words[wLo] &^= loMask & hiMask
		return
	}
	words[wLo] &^= loMask
	for w := wLo + 1; w < wHi; w++ {
		words[w] = 0
	}
	words[wHi] &^= hiMask
}

// And intersects s with o in place and returns s. The result may be
// re-encoded.
func (s *RowSet) And(o *RowSet) *RowSet {
	s.checkUniverse(o)
	if s.enc == encDense && o.enc == encDense {
		for i := range s.words {
			s.words[i] &= o.words[i]
		}
		return s
	}
	if s.enc == encDense {
		// Result ⊆ o: keep s dense, clear everything outside o's runs.
		prev := 0
		it := o.iter()
		for {
			lo, hi, ok := it.next()
			if !ok {
				break
			}
			clearWordRange(s.words, prev, lo)
			prev = hi
		}
		clearWordRange(s.words, prev, s.n)
		return s
	}
	b := newSetBuilder(s.n)
	ia, ib := s.iter(), o.iter()
	alo, ahi, aok := ia.next()
	blo, bhi, bok := ib.next()
	for aok && bok {
		lo, hi := alo, ahi
		if blo > lo {
			lo = blo
		}
		if bhi < hi {
			hi = bhi
		}
		if lo < hi {
			b.add(lo, hi)
		}
		if ahi <= bhi {
			alo, ahi, aok = ia.next()
		} else {
			blo, bhi, bok = ib.next()
		}
	}
	b.store(s)
	return s
}

// Or unions o into s in place and returns s. The result may be re-encoded.
func (s *RowSet) Or(o *RowSet) *RowSet {
	s.checkUniverse(o)
	if s.enc == encDense && o.enc == encDense {
		for i := range s.words {
			s.words[i] |= o.words[i]
		}
		return s
	}
	if s.enc == encDense {
		// Stays dense: set o's runs directly into the bitmap.
		it := o.iter()
		for {
			lo, hi, ok := it.next()
			if !ok {
				break
			}
			setWordRange(s.words, lo, hi)
		}
		return s
	}
	b := newSetBuilder(s.n)
	ia, ib := s.iter(), o.iter()
	alo, ahi, aok := ia.next()
	blo, bhi, bok := ib.next()
	curLo, curHi := 0, 0
	have := false
	emit := func(lo, hi int) {
		if !have {
			curLo, curHi, have = lo, hi, true
			return
		}
		if lo <= curHi {
			if hi > curHi {
				curHi = hi
			}
			return
		}
		b.add(curLo, curHi)
		curLo, curHi = lo, hi
	}
	for aok || bok {
		if aok && (!bok || alo <= blo) {
			emit(alo, ahi)
			alo, ahi, aok = ia.next()
		} else {
			emit(blo, bhi)
			blo, bhi, bok = ib.next()
		}
	}
	if have {
		b.add(curLo, curHi)
	}
	b.store(s)
	return s
}

// Intersect returns a new set with the rows common to s and o.
func (s *RowSet) Intersect(o *RowSet) *RowSet { return s.Clone().And(o) }

// Equal reports whether s and o contain the same rows of the same universe,
// regardless of encoding.
func (s *RowSet) Equal(o *RowSet) bool {
	if s.n != o.n {
		return false
	}
	if s.enc == o.enc {
		switch s.enc {
		case encDense:
			for i := range s.words {
				if s.words[i] != o.words[i] {
					return false
				}
			}
			return true
		case encSparse:
			if len(s.elems) != len(o.elems) {
				return false
			}
			for i := range s.elems {
				if s.elems[i] != o.elems[i] {
					return false
				}
			}
			return true
		default:
			if len(s.runs) != len(o.runs) {
				return false
			}
			for i := range s.runs {
				if s.runs[i] != o.runs[i] {
					return false
				}
			}
			return true
		}
	}
	// Mixed encodings: every encoding yields the same canonical sequence of
	// maximal runs.
	ia, ib := s.iter(), o.iter()
	for {
		alo, ahi, aok := ia.next()
		blo, bhi, bok := ib.next()
		if aok != bok {
			return false
		}
		if !aok {
			return true
		}
		if alo != blo || ahi != bhi {
			return false
		}
	}
}

// Slice projects the members in [lo, hi) into a new set over the universe
// [0, hi-lo), shifting each row by -lo — the window-local translation a
// View needs; Grow maps such a set back. O(#runs) offset arithmetic for
// the compact encodings. It panics unless 0 <= lo <= hi <= Universe().
func (s *RowSet) Slice(lo, hi int) *RowSet {
	if lo < 0 || hi < lo || hi > s.n {
		panic(fmt.Sprintf("relation: slice [%d,%d) outside universe [0,%d)", lo, hi, s.n))
	}
	out := &RowSet{n: hi - lo}
	switch s.enc {
	case encDense:
		out.enc = encDense
		out.words = make([]uint64, (out.n+63)/64)
		shift := uint(lo & 63)
		w0 := lo >> 6
		for i := range out.words {
			w := s.words[w0+i] >> shift
			if shift != 0 && w0+i+1 < len(s.words) {
				w |= s.words[w0+i+1] << (64 - shift)
			}
			out.words[i] = w
		}
		out.trim()
	case encRuns:
		b := newSetBuilder(hi - lo)
		i := sort.Search(len(s.runs), func(k int) bool { return int(s.runs[k].hi) > lo })
		for ; i < len(s.runs) && int(s.runs[i].lo) < hi; i++ {
			l, h := int(s.runs[i].lo), int(s.runs[i].hi)
			if l < lo {
				l = lo
			}
			if h > hi {
				h = hi
			}
			b.add(l-lo, h-lo)
		}
		b.store(out)
	default: // sparse
		i := sort.Search(len(s.elems), func(k int) bool { return int(s.elems[k]) >= lo })
		j := sort.Search(len(s.elems), func(k int) bool { return int(s.elems[k]) >= hi })
		elems := make([]int32, j-i)
		for k := i; k < j; k++ {
			elems[k-i] = s.elems[k] - int32(lo)
		}
		out.enc, out.elems = encSparse, elems
	}
	return out
}

// Grow returns the set over the universe [0, s.Universe()+tail.Universe())
// holding s's rows and tail's, each shifted by s.Universe() — an append
// batch's window-local rows folded into a set over the rows before it. s
// does not change.
//
// A runs-encoded result shares s's run array. When s owns the array's last
// element and the spare capacity past it holds tail's runs, they are
// appended there and nothing is copied; otherwise — s was never grown, a
// set grown from s (or from a set sharing its array) already appended past
// it, tail's first run extends s's last, or the capacity is spent — the
// runs are copied once into an array with room to grow. So growing a set
// batch after batch costs the batches' runs, amortized, not the set's
// history, and every set handed out before keeps exactly its rows. Other
// encodings are copied.
func (s *RowSet) Grow(tail *RowSet) *RowSet {
	off := s.n
	out := &RowSet{n: off + tail.n}
	if s.enc != encRuns || !compressible(out.n) {
		if s.enc == encDense {
			out.enc = encDense
			out.words = make([]uint64, (out.n+63)/64)
			copy(out.words, s.words)
			tail.ForEachRun(func(lo, hi int) { setWordRange(out.words, lo+off, hi+off) })
			return out
		}
		b := newSetBuilder(out.n)
		s.ForEachRun(b.add)
		tail.ForEachRun(func(lo, hi int) { b.add(lo+off, hi+off) })
		b.store(out)
		return out
	}
	m, k, joins := len(s.runs), 0, false
	it := tail.iter()
	for lo, _, ok := it.next(); ok; lo, _, ok = it.next() {
		joins = joins || k == 0 && m > 0 && int(s.runs[m-1].hi) == lo+off
		k++
	}
	runs, claim := s.runs, s.claim
	switch {
	case claim != nil && k == 0:
		// Nothing is written: share the array as it is.
	case claim == nil || joins || cap(runs)-m < k || !claim.n.CompareAndSwap(int32(m), int32(m+k)):
		runs, claim = slices.Grow(runs[:m:m], k), &runClaim{}
	}
	it = tail.iter()
	for lo, hi, ok := it.next(); ok; lo, hi, ok = it.next() {
		if j := len(runs); j > 0 && int(runs[j-1].hi) == lo+off {
			runs[j-1].hi = int32(hi + off) // joins: runs is a fresh copy
			continue
		}
		runs = append(runs, span{int32(lo + off), int32(hi + off)})
	}
	if claim.n.Load() < int32(len(runs)) {
		claim.n.Store(int32(len(runs)))
	}
	out.enc, out.runs, out.claim = encRuns, runs, claim
	out.adapt()
	return out
}

// ForEach calls fn for every row in ascending order.
func (s *RowSet) ForEach(fn func(row int)) {
	switch s.enc {
	case encDense:
		for wi, w := range s.words {
			base := wi << 6
			for w != 0 {
				tz := bits.TrailingZeros64(w)
				fn(base + tz)
				w &= w - 1
			}
		}
	case encSparse:
		for _, e := range s.elems {
			fn(int(e))
		}
	default:
		for _, r := range s.runs {
			for i := int(r.lo); i < int(r.hi); i++ {
				fn(i)
			}
		}
	}
}

// ForEachRun calls fn for every maximal run [lo, hi) of consecutive member
// rows, in ascending order — the columnar sibling of ForEach: a caller that
// reads column slices gets whole windows to loop over instead of one
// callback per row, whatever the encoding.
func (s *RowSet) ForEachRun(fn func(lo, hi int)) {
	s.ForEachRunFrom(0, fn)
}

// ForEachRunFrom is ForEachRun over the members at or after from: the run
// holding from starts at from. A caller that already folded the rows before
// from skips them in O(log #runs) for the compact encodings.
func (s *RowSet) ForEachRunFrom(from int, fn func(lo, hi int)) {
	it := s.iter()
	it.seek(from)
	for lo, hi, ok := it.next(); ok; lo, hi, ok = it.next() {
		fn(max(lo, from), hi)
	}
}

// Rows returns the member rows in ascending order.
func (s *RowSet) Rows() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(r int) { out = append(out, r) })
	return out
}

// String renders a small summary, e.g. "RowSet(5/100,runs)".
func (s *RowSet) String() string {
	return fmt.Sprintf("RowSet(%d/%d,%s)", s.Count(), s.n, s.Encoding())
}

// check validates the encoding's structural invariants; tests and the fuzz
// harness call it after every operation. Heuristic size thresholds are NOT
// invariants (forced conversions may exceed them).
func (s *RowSet) check() error {
	if s.n < 0 {
		return fmt.Errorf("negative universe %d", s.n)
	}
	switch s.enc {
	case encDense:
		if len(s.words) != (s.n+63)/64 {
			return fmt.Errorf("dense: %d words for universe %d", len(s.words), s.n)
		}
		if s.runs != nil || s.elems != nil {
			return fmt.Errorf("dense: stale compact storage")
		}
		if s.n%64 != 0 && len(s.words) > 0 {
			if s.words[len(s.words)-1]&^((uint64(1)<<uint(s.n%64))-1) != 0 {
				return fmt.Errorf("dense: bits set beyond universe %d", s.n)
			}
		}
	case encRuns:
		if s.words != nil || s.elems != nil {
			return fmt.Errorf("runs: stale storage")
		}
		if s.claim != nil && int(s.claim.n.Load()) < len(s.runs) {
			return fmt.Errorf("runs: %d runs past a claim of %d", len(s.runs), s.claim.n.Load())
		}
		prev := int32(-1)
		for i, r := range s.runs {
			if r.lo >= r.hi {
				return fmt.Errorf("runs[%d]: empty span [%d,%d)", i, r.lo, r.hi)
			}
			if int(r.hi) > s.n {
				return fmt.Errorf("runs[%d]: span [%d,%d) beyond universe %d", i, r.lo, r.hi, s.n)
			}
			if r.lo < 0 {
				return fmt.Errorf("runs[%d]: negative lo %d", i, r.lo)
			}
			if prev >= 0 && r.lo <= prev {
				return fmt.Errorf("runs[%d]: span [%d,%d) not past previous hi %d (unsorted or adjacent)", i, r.lo, r.hi, prev)
			}
			prev = r.hi
		}
	case encSparse:
		if s.words != nil || s.runs != nil {
			return fmt.Errorf("sparse: stale storage")
		}
		for i, e := range s.elems {
			if e < 0 || int(e) >= s.n {
				return fmt.Errorf("elems[%d]: %d outside universe [0,%d)", i, e, s.n)
			}
			if i > 0 && e <= s.elems[i-1] {
				return fmt.Errorf("elems[%d]: %d not strictly increasing", i, e)
			}
		}
	default:
		return fmt.Errorf("unknown encoding %d", s.enc)
	}
	return nil
}
