// Package grid builds the two grid searchers, NAIVE (§4.2) and MC (§6.2),
// with their anytime estimator attached. The root package's local search
// and a remote shard worker both build through it, so the two paths cannot
// wire the estimator differently.
package grid

import (
	"github.com/scorpiondb/scorpion/internal/estimate"
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/partition/mc"
	"github.com/scorpiondb/scorpion/internal/partition/naive"
	"github.com/scorpiondb/scorpion/internal/predicate"
)

// Naive builds the NAIVE searcher. With a.Epsilon > 0 it attaches the
// anytime estimator (nil for a task it cannot bound, which runs exact);
// otherwise p keeps whatever Estimator it carries.
func Naive(scorer *influence.Scorer, space *predicate.Space, p naive.Params, a estimate.Params) partition.Searcher {
	if a.Epsilon > 0 {
		p.Estimator = estimate.New(scorer, a)
	}
	return naive.NewSearcher(scorer, space, p)
}

// MC builds the MC searcher, attaching the estimator as Naive does.
func MC(scorer *influence.Scorer, space *predicate.Space, p mc.Params, a estimate.Params) partition.Searcher {
	if a.Epsilon > 0 {
		p.Estimator = estimate.New(scorer, a)
	}
	return mc.NewSearcher(scorer, space, p)
}
