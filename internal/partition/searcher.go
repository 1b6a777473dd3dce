package partition

import "context"

// Searcher is the common face of the three partitioning algorithms (NAIVE,
// DT, MC): given a Pool carrying the search context and worker budget, run
// the search and return ranked candidates. Implementations live in the
// algorithm packages and close over their scorer, space and tuning params.
type Searcher interface {
	// Name identifies the algorithm ("naive", "dt", "mc").
	Name() string
	// Search runs the algorithm on the pool. On context cancellation it
	// returns the best-so-far outcome with Outcome.Interrupted set rather
	// than an error; errors are reserved for invalid inputs.
	Search(pool *Pool) (*Outcome, error)
}

// Outcome is a partitioner run reduced to the common currency.
type Outcome struct {
	// Candidates holds the ranked results (descending score).
	Candidates []Candidate
	// Work counts algorithm-specific units of search effort: predicates
	// enumerated (NAIVE), tree leaves emitted (DT), units scored (MC).
	Work int64
	// Interrupted reports that the pool's context was cancelled mid-search
	// and Candidates holds partial best-so-far results.
	Interrupted bool
}

// RunSearch drives a Searcher over ctx with the given worker budget — the
// single entry point the public API uses for all three algorithms. A
// context that is already cancelled returns an empty interrupted outcome
// without touching the searcher.
func RunSearch(ctx context.Context, workers int, s Searcher) (*Outcome, error) {
	return RunSearchObserved(ctx, workers, nil, s)
}

// RunSearchObserved is RunSearch with an optional best-so-far board: when
// board is non-nil the searcher publishes its running top candidates to it,
// so a concurrent observer can snapshot partial results mid-search (the
// async job service's polling path). A nil board is exactly RunSearch.
func RunSearchObserved(ctx context.Context, workers int, board *Board, s Searcher) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return &Outcome{Interrupted: true}, nil
	}
	return s.Search(NewPool(ctx, workers).WithBoard(board))
}
