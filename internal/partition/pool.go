package partition

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the shared worker-pool runner behind the searches' parallel
// sections. It bundles the search context (for cancellation) with the worker
// budget, so NAIVE's predicate streaming and MC's frontier/merge scoring
// draw from one fan-out facility instead of rolling their own goroutine
// plumbing. DT, which runs on one goroutine, uses a pool only for its
// context and best-so-far board.
//
// A Pool does not own long-lived goroutines: each ForEach or Stream call
// spins up at most Workers goroutines for its own duration. A Pool is safe
// to share across the sequential phases of one search.
type Pool struct {
	ctx     context.Context
	workers int
	// board, when non-nil, receives best-so-far candidate publications from
	// the searchers so observers can poll partial results mid-run.
	board *Board
}

// maxWorkers caps a pool's worker budget: beyond this, extra goroutines
// only cost stacks and scheduling (Stream spawns one goroutine per worker,
// so an unbounded value from an untrusted knob could exhaust memory).
const maxWorkers = 256

// NewPool builds a pool over ctx with the given worker budget. workers <= 0
// selects GOMAXPROCS; values above 256 are clamped. A nil ctx means
// context.Background(). A 1-worker pool runs everything on the calling
// goroutine (the serial path).
func NewPool(ctx context.Context, workers int) *Pool {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > maxWorkers {
		workers = maxWorkers
	}
	return &Pool{ctx: ctx, workers: workers}
}

// Context returns the pool's search context.
func (p *Pool) Context() context.Context { return p.ctx }

// WithBoard attaches a best-so-far board to the pool and returns the pool.
// Searchers publish to it via PublishBest; a nil board (the default)
// disables publication.
func (p *Pool) WithBoard(b *Board) *Pool {
	p.board = b
	return p
}

// Board returns the attached best-so-far board, or nil when unobserved.
func (p *Pool) Board() *Board { return p.board }

// PublishBest offers cands to the pool's board. It is safe to call from any
// worker and is a no-op when no board is attached or cands do not improve
// on the board's best.
func (p *Pool) PublishBest(cands []Candidate) { p.board.Publish(cands) }

// Workers returns the pool's worker budget.
func (p *Pool) Workers() int { return p.workers }

// Cancelled reports whether the pool's context is done, without blocking.
func (p *Pool) Cancelled() bool {
	select {
	case <-p.ctx.Done():
		return true
	default:
		return false
	}
}

// Err returns the context's error once cancelled, nil while the search may
// continue.
func (p *Pool) Err() error {
	if p.Cancelled() {
		return p.ctx.Err()
	}
	return nil
}

// ForEach runs f(i) for every index in [0, n), fanned out over the pool's
// workers. It stops handing out new indices once the context is cancelled
// (in-flight calls finish) and returns the context error, or nil when every
// index ran. f must be safe for concurrent invocation when the pool has
// more than one worker; writes to disjoint slice elements indexed by i are
// the intended communication pattern.
func (p *Pool) ForEach(n int, f func(i int)) error {
	if n <= 0 {
		return p.Err()
	}
	workers := p.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if p.Cancelled() {
				return p.ctx.Err()
			}
			f(i)
		}
		return p.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if p.Cancelled() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
	return p.Err()
}

// Stream starts the pool's workers consuming items submitted by the caller
// — the producer/consumer shape NAIVE's enumeration needs, where the item
// universe is too large to materialize up front. It returns a submit
// function and a wait function: call submit for each item, then wait to
// close the stream and join the workers. After cancellation, submit drops
// items instead of blocking so producers can drain quickly; the producer
// should also poll Cancelled to stop generating work.
func Stream[T any](p *Pool, work func(T)) (submit func(T), wait func()) {
	workers := p.workers
	if workers < 1 {
		workers = 1
	}
	ch := make(chan T, workers*2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for item := range ch {
				if p.Cancelled() {
					continue // drain without working
				}
				work(item)
			}
		}()
	}
	submit = func(item T) {
		select {
		case ch <- item:
		case <-p.ctx.Done():
		}
	}
	wait = func() {
		close(ch)
		wg.Wait()
	}
	return submit, wait
}
