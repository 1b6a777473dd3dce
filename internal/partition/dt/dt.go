// Package dt implements Scorpion's DT partitioner (§6.1): a top-down
// regression-tree algorithm for independent aggregates. Tuples are labeled
// with their individual influence; the attribute space is recursively split
// so each partition holds tuples of similar influence, with the error
// threshold relaxed for non-influential partitions (Figure 4). Outlier and
// hold-out input groups are partitioned by two synchronized trees (§6.1.3)
// whose per-group split metrics combine via max, and the two partitionings
// are finally combined by splitting outlier partitions along influential
// hold-out partitions (§6.1.4).
//
// The partitioning itself is agnostic to the c knob (tuple influence has a
// denominator of 1^c), so a Partitioning can be cached and re-scored for
// different c values (§8.3.3).
//
// The build is cancellable and runs on the calling goroutine, as §6.1's
// tree is sequential: Partition threads a context.Context into the tree
// expansion, and cancellation emits the unfinished frontier as coarse
// leaves, so the partial partitioning still tiles the space. Every node's
// sampling randomness is derived from its position in the tree, so the
// partitioning does not depend on the order nodes are expanded in.
package dt

import (
	"context"
	"fmt"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
)

// Params configures the DT partitioner.
type Params struct {
	// DisableSampling forces full scans (sampling rate 1).
	DisableSampling bool
	// SampleSeed seeds the deterministic sampler.
	SampleSeed int64
}

// The partitioner's tuning constants; DESIGN.md ("Tuning constants") gives
// each one's source.
const (
	// tauMin and tauMax bound the relative error threshold curve
	// (Figure 4); inflectionP is its inflection point p.
	tauMin, tauMax, inflectionP = 0.05, 0.5, 0.5
	// minSize stops splitting partitions with fewer sampled tuples.
	minSize = 10
	// maxDepth bounds tree depth.
	maxDepth = 12
	// contSplitCandidates is the number of quantile split candidates per
	// continuous attribute.
	contSplitCandidates = 3
	// sampleEpsilon is the assumed fractional size of an influential
	// cluster and sampleConfidence the probability of catching it: the
	// §6.1.2 initial sampling rate.
	sampleEpsilon, sampleConfidence = 0.05, 0.95
	// holdOutFrac classifies a hold-out partition as influential when its
	// |mean influence| is at least this fraction of the largest hold-out
	// leaf's (§6.1.4 combine step).
	holdOutFrac = 0.1
)

// Node ids are heap-style path indices in a uint64, up to 2^(maxDepth+1)−1:
// this constant overflows, failing the build, if a deeper tree's ids could
// not fit.
const _ uint64 = 1<<(maxDepth+1) - 1

func (p Params) withDefaults() Params {
	if p.SampleSeed == 0 {
		p.SampleSeed = 1
	}
	return p
}

// Leaf is one partition of an input-group tree with the pooled mean
// influence of its sampled tuples, which the §6.1.4 combine step reads to
// classify hold-out partitions.
type Leaf struct {
	// Pred is the partition's bounding predicate.
	Pred predicate.Predicate
	// MeanInfluence is the pooled mean influence across groups.
	MeanInfluence float64
}

// Partitioning is the c-agnostic output of the DT trees: reusable across
// Scorer runs with different c values.
type Partitioning struct {
	// OutlierLeaves and HoldOutLeaves are the two trees' partitions.
	OutlierLeaves []Leaf
	HoldOutLeaves []Leaf
	// Combined holds the §6.1.4 combination: outlier partitions split along
	// influential hold-out partitions, each flagged when it overlaps one.
	Combined []combinedPiece
	// Interrupted reports that context cancellation cut the tree build
	// short; the leaves still tile the space, but unfinished frontier
	// nodes were kept as coarse partitions.
	Interrupted bool
	// space is the space the partitioning and its pieces' boxes are of.
	space *predicate.Space
}

type combinedPiece struct {
	pred predicate.Predicate
	// piece is its Box for the Merger and the Lattice, built once with the
	// partitioning.
	piece partition.Piece
}

// Partition builds the outlier and hold-out trees and combines them. The
// build stops early once ctx is cancelled, keeping the frontier as coarse
// leaves. The result does not depend on the task's C and can be cached
// across c sweeps.
func Partition(ctx context.Context, scorer *influence.Scorer, space *predicate.Space, params Params) (*Partitioning, error) {
	params = params.withDefaults()
	task := scorer.Task()
	if !task.Agg.Independent() {
		return nil, fmt.Errorf("dt: aggregate %q is not independent; use the NAIVE partitioner", task.Agg.Name())
	}

	outTree := newTree(scorer, space, params, task.Outliers, scorer.TupleOutlierInfluence)
	outLeaves := outTree.build(ctx)
	interrupted := outTree.interrupted

	var holdLeaves []Leaf
	if len(task.HoldOuts) > 0 {
		// Decorrelate the hold-out tree's per-node RNG streams from the
		// outlier tree's (both derive draws from SampleSeed and node ids).
		holdParams := params
		holdParams.SampleSeed ^= 0x5bd1e995
		holdTree := newTree(scorer, space, holdParams, task.HoldOuts, scorer.TupleHoldOutInfluence)
		holdLeaves = holdTree.build(ctx)
		interrupted = interrupted || holdTree.interrupted
	}

	pt := &Partitioning{OutlierLeaves: outLeaves, HoldOutLeaves: holdLeaves, Interrupted: interrupted, space: space}
	pt.combine(space)
	for i := range pt.Combined {
		pt.Combined[i].piece = partition.NewPiece(space, pt.Combined[i].pred)
	}
	return pt, nil
}

// PartitionContext is Partition; workers is ignored.
//
// Deprecated: the serving benchmark's ladder still calls it; use Partition.
func PartitionContext(ctx context.Context, scorer *influence.Scorer, space *predicate.Space, params Params, workers int) (*Partitioning, error) {
	return Partition(ctx, scorer, space, params)
}

// Score scores the combined partitioning through lat, a lattice over the
// partitioning's space, producing Merger-ready candidates: a piece is
// scored by its Box, from the scorer's selection memo or folded from the
// lattice's bitsets. Once ctx is cancelled the remaining pieces are dropped
// — the returned list is the scored best-so-far subset, never zero-value
// (match-everything, score-0) placeholders.
func (pt *Partitioning) Score(ctx context.Context, lat *influence.Lattice) []partition.Candidate {
	out := make([]partition.Candidate, 0, len(pt.Combined))
	for i := range pt.Combined {
		if ctx.Err() != nil {
			break
		}
		piece := &pt.Combined[i]
		c := partition.Candidate{Pred: piece.pred, Piece: &piece.piece}
		c.SetScore(lat.Parts(piece.piece.Box, piece.piece.Boxed, piece.pred))
		out = append(out, c)
	}
	partition.SortByScore(out)
	return out
}

// Candidates is Score through a lattice of its own, uncancellable.
func (pt *Partitioning) Candidates(scorer *influence.Scorer) []partition.Candidate {
	return pt.Score(context.Background(), scorer.NewLattice(pt.space))
}

// threshold computes the Figure 4 error threshold for a partition whose
// maximum tuple influence is infMax, given the tree-global influence bounds
// [infL, infU].
//
// The paper's slope formula as printed yields a negative slope (tightening
// the threshold as partitions become LESS influential, the opposite of the
// stated intent); we implement the stated curve: ω = τmax for
// infMax ≤ infL + p·(infU−infL), decreasing linearly to ω = τmin at
// infMax = infU.
func threshold(infMax, infL, infU, tauMin, tauMax, p float64) float64 {
	spread := infU - infL
	if spread <= 0 {
		return 0
	}
	s := (tauMax - tauMin) / ((1 - p) * spread)
	omega := tauMin + s*(infU-infMax)
	if omega > tauMax {
		omega = tauMax
	}
	if omega < tauMin {
		omega = tauMin
	}
	return omega * spread
}
