package dt

import (
	"math"

	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// combine implements §6.1.4: outlier partitions are split along their
// intersections with influential hold-out partitions, so pieces that would
// perturb hold-out results are separated (and flagged) from pieces that only
// influence outliers.
func (pt *Partitioning) combine(space *predicate.Space) {
	influential := influentialHoldOuts(pt.HoldOutLeaves, holdOutFrac)
	pt.Combined = pt.Combined[:0]
	for _, leaf := range pt.OutlierLeaves {
		pending := []predicate.Predicate{leaf.Pred}
		for _, h := range influential {
			var next []predicate.Predicate
			for _, piece := range pending {
				inside, ok, outside := splitByBox(piece, h.Pred, space)
				if ok {
					pt.Combined = append(pt.Combined, combinedPiece{pred: inside, influencesHoldOut: true})
				}
				next = append(next, outside...)
			}
			pending = next
		}
		for _, piece := range pending {
			pt.Combined = append(pt.Combined, combinedPiece{pred: piece})
		}
	}
}

// influentialHoldOuts selects hold-out leaves whose mean |influence| is at
// least frac of the largest leaf's.
func influentialHoldOuts(leaves []Leaf, frac float64) []Leaf {
	maxAbs := 0.0
	for _, l := range leaves {
		if a := math.Abs(l.MeanInfluence); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return nil
	}
	var out []Leaf
	for _, l := range leaves {
		if math.Abs(l.MeanInfluence) >= frac*maxAbs {
			out = append(out, l)
		}
	}
	return out
}

// splitByBox partitions predicate p along box h: the piece inside h (ok
// reports whether it is non-empty) and the pieces outside h. The outside
// pieces are mutually disjoint and disjoint from the inside piece (up to
// boundary inclusivity of closed upper bounds, which DT boxes only use at
// the domain maximum).
func splitByBox(p, h predicate.Predicate, space *predicate.Space) (predicate.Predicate, bool, []predicate.Predicate) {
	rem := p
	var outside []predicate.Predicate
	for _, hc := range h.Clauses() {
		pc, ok := rem.ClauseOn(hc.Col)
		if !ok {
			pc = space.FullClause(hc.Col)
		}
		if hc.Kind == relation.Continuous {
			lo := math.Max(pc.Lo, hc.Lo)
			hi := math.Min(pc.Hi, hc.Hi)
			hiInc := pc.HiInc && hc.HiInc
			if pc.Hi < hc.Hi {
				hiInc = pc.HiInc
			} else if hc.Hi < pc.Hi {
				hiInc = hc.HiInc
			}
			if lo > hi || (lo == hi && !hiInc) {
				// No overlap on this attribute: everything is outside.
				return predicate.Predicate{}, false, append(outside, rem)
			}
			if pc.Lo < lo {
				left := predicate.NewRangeClause(hc.Col, hc.Name, pc.Lo, lo, false)
				outside = append(outside, replaceClause(rem, left))
			}
			if hi < pc.Hi {
				right := predicate.NewRangeClause(hc.Col, hc.Name, hi, pc.Hi, pc.HiInc)
				outside = append(outside, replaceClause(rem, right))
			}
			rem = replaceClause(rem, predicate.NewRangeClause(hc.Col, hc.Name, lo, hi, hiInc))
		} else {
			var inter, outs []int32
			hset := make(map[int32]bool, len(hc.Values))
			for _, v := range hc.Values {
				hset[v] = true
			}
			for _, v := range pc.Values {
				if hset[v] {
					inter = append(inter, v)
				} else {
					outs = append(outs, v)
				}
			}
			if len(inter) == 0 {
				return predicate.Predicate{}, false, append(outside, rem)
			}
			if len(outs) > 0 {
				outside = append(outside, replaceClause(rem, predicate.NewSetClause(hc.Col, hc.Name, outs)))
			}
			rem = replaceClause(rem, predicate.NewSetClause(hc.Col, hc.Name, inter))
		}
	}
	return rem, true, outside
}
