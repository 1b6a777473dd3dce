package mc

import (
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
)

// searcher adapts the MC search to the partition.Searcher interface. lat
// is the run's lattice, until the rank step's exact re-score takes it.
type searcher struct {
	scorer *influence.Scorer
	space  *predicate.Space
	params Params
	lat    *influence.Lattice
}

// NewSearcher wraps an MC search as a partition.Searcher driven by the
// shared worker-pool runner.
func NewSearcher(scorer *influence.Scorer, space *predicate.Space, params Params) partition.Searcher {
	return &searcher{scorer: scorer, space: space, params: params}
}

func (s *searcher) Name() string { return "mc" }

func (s *searcher) Search(pool *partition.Pool) (*partition.Outcome, error) {
	s.lat = s.scorer.NewLattice(s.space)
	res, err := runPool(pool, s.scorer, s.space, s.params, s.lat)
	if err != nil {
		return nil, err
	}
	return &partition.Outcome{
		Candidates:  res.Candidates,
		Work:        int64(res.Iterations),
		Interrupted: res.Interrupted,
	}, nil
}

// TakeLattice hands the run's lattice to the exact re-score and lets go of
// it.
func (s *searcher) TakeLattice() *influence.Lattice {
	lat := s.lat
	s.lat = nil
	return lat
}
