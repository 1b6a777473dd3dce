package naive

import (
	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
)

// searcher adapts the NAIVE search to the partition.Searcher interface.
type searcher struct {
	scorer *influence.Scorer
	space  *predicate.Space
	params Params
}

// NewSearcher wraps a NAIVE search as a partition.Searcher driven by the
// shared worker-pool runner.
func NewSearcher(scorer *influence.Scorer, space *predicate.Space, params Params) partition.Searcher {
	return &searcher{scorer: scorer, space: space, params: params}
}

func (s *searcher) Name() string { return "naive" }

func (s *searcher) Search(pool *partition.Pool) (*partition.Outcome, error) {
	res, err := runPool(pool, s.scorer, s.space, s.params)
	if err != nil {
		return nil, err
	}
	return &partition.Outcome{
		Candidates:  res.TopK,
		Work:        res.Enumerated,
		Interrupted: res.Interrupted,
	}, nil
}
