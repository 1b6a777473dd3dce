// Package partition defines the common currency between Scorpion's
// partitioning algorithms (NAIVE §4.2, DT §6.1, MC §6.2) and the Merger
// (§4.3/§6.3): scored candidate predicates.
package partition

import (
	"math"
	"sort"

	"github.com/scorpiondb/scorpion/internal/predicate"
)

// Candidate is a predicate produced by a partitioner, tagged with its
// influence, its hold-out penalty and, for DT partitions, its piece.
type Candidate struct {
	// Pred is the candidate explanation predicate.
	Pred predicate.Predicate
	// Score is the (estimated) influence inf(O, H, p, V).
	Score float64
	// HoldPenalty is max_h |inf(h, p)| at scoring time.
	HoldPenalty float64
	// InfluencesHoldOut marks partitions that overlap an influential
	// hold-out partition after the §6.1.4 combine step.
	InfluencesHoldOut bool
	// Matched is |p(g_O)| as the exact re-score counted it (0 before it).
	Matched int
	// Piece, when set, is the candidate's entry in its DT partitioning's
	// piece table, which the Merger reads instead of deriving it again.
	Piece *Piece
}

// Piece is a candidate as the Merger and a Lattice read it: its Box over a
// space, when a Box can hold it. A DT partitioning builds its pieces once,
// for every c it is scored at.
type Piece struct {
	space *predicate.Space
	Box   predicate.Box
	Boxed bool
}

// NewPiece builds p's piece over space.
func NewPiece(space *predicate.Space, p predicate.Predicate) Piece {
	b, ok := space.Box(p)
	return Piece{space: space, Box: b, Boxed: ok}
}

// Of reports whether p is a piece built over space.
func (p *Piece) Of(space *predicate.Space) bool { return p != nil && p.space == space }

// Better reports whether score a ranks strictly above score b: descending,
// with NaN below every number. A plain a > b is false both ways for a NaN,
// which breaks sorting and makes parallel top-k depend on arrival order.
func Better(a, b float64) bool {
	if math.IsNaN(b) {
		return !math.IsNaN(a)
	}
	return a > b
}

// SortByScore orders candidates by descending score (stable), NaN last.
func SortByScore(cands []Candidate) {
	sort.SliceStable(cands, func(i, j int) bool { return Better(cands[i].Score, cands[j].Score) })
}

// Dedupe removes candidates with duplicate canonical predicates, keeping the
// highest-scored instance. Input order is otherwise preserved.
func Dedupe(cands []Candidate) []Candidate {
	best := make(map[string]int, len(cands))
	out := cands[:0]
	for _, c := range cands {
		key := c.Pred.Key()
		if i, ok := best[key]; ok {
			if Better(c.Score, out[i].Score) {
				out[i] = c
			}
			continue
		}
		best[key] = len(out)
		out = append(out, c)
	}
	return out
}

// Top returns the best-scored candidate, or false when empty.
func Top(cands []Candidate) (Candidate, bool) {
	if len(cands) == 0 {
		return Candidate{}, false
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if Better(c.Score, best.Score) {
			best = c
		}
	}
	return best, true
}
