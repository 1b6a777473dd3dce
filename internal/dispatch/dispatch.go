// Package dispatch is the coordinator-side client for remote shard
// workers: it implements scorpion.ShardDispatcher over a fixed list of
// peer URLs (scorpion-server -worker processes), with per-shard timeouts,
// bounded retry with jittered backoff, peer health tracking with probe-
// based recovery, and unconditional local fallback — a dispatch that
// cannot be completed on the fleet simply reports "not handled" and the
// shard coordinator runs that shard in-process.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/shard"
	"github.com/scorpiondb/scorpion/internal/wire"
)

// NewHTTPClient builds the hardened HTTP client the CLI and the dispatch
// pool share: bounded dial/TLS/header phases at the transport so a dead
// host can never wedge a caller, while the overall request duration stays
// governed by per-request contexts (client.Timeout would also cap body
// reads, killing legitimately long explain responses). A zero dialTimeout
// uses 10s.
func NewHTTPClient(dialTimeout time.Duration) *http.Client {
	if dialTimeout <= 0 {
		dialTimeout = 10 * time.Second
	}
	return &http.Client{
		Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: dialTimeout, KeepAlive: 30 * time.Second}).DialContext,
			TLSHandshakeTimeout:   dialTimeout,
			ResponseHeaderTimeout: 0, // per-request contexts bound the wait
			IdleConnTimeout:       90 * time.Second,
			MaxIdleConnsPerHost:   8,
		},
	}
}

// Options tunes a Pool.
type Options struct {
	// Peers are worker base URLs (e.g. "http://host:8081"). Required.
	Peers []string
	// ShardTimeout bounds one dispatch attempt end to end (default 2m).
	ShardTimeout time.Duration
	// Retries is how many additional attempts (on other peers) a failed
	// dispatch gets before falling back local (default 2).
	Retries int
	// Backoff is the base retry delay; attempt k sleeps Backoff·2^k plus
	// up to 50% jitter (default 100ms).
	Backoff time.Duration
	// BenchFor is how long a failed peer sits out before a health probe
	// can readmit it (default 15s).
	BenchFor time.Duration
	// Client overrides the HTTP client (default NewHTTPClient(0)).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 2 * time.Minute
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.BenchFor <= 0 {
		o.BenchFor = 15 * time.Second
	}
	if o.Client == nil {
		o.Client = NewHTTPClient(0)
	}
	return o
}

// Stats is a snapshot of a Pool's dispatch counters; the remote benchmark
// reports overhead and bytes-on-wire from here.
type Stats struct {
	// Dispatched counts shard searches offered to the fleet; Succeeded
	// those answered remotely; Fallbacks those handed back for a local
	// run; Retries every extra attempt after a failure.
	Dispatched, Succeeded, Fallbacks, Retries int64
	// BytesOut / BytesIn are serialized task and result bytes.
	BytesOut, BytesIn int64
	// DispatchNanos is the summed wall-clock of successful dispatches
	// (serialize + HTTP round-trip + decode): the coordinator-side
	// overhead the remote path adds per shard.
	DispatchNanos int64
}

// peer is one worker URL plus its health state.
type peer struct {
	base string

	mu       sync.Mutex
	badUntil time.Time
	wasBad   bool
}

// Pool dispatches shard searches to a fixed peer list.
type Pool struct {
	opts  Options
	peers []*peer
	next  atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand

	dispatched, succeeded, fallbacks, retries atomic.Int64
	bytesOut, bytesIn, dispatchNanos          atomic.Int64
}

// NewPool builds a Pool over the given peers.
func NewPool(opts Options) (*Pool, error) {
	opts = opts.withDefaults()
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("dispatch: no peers")
	}
	p := &Pool{opts: opts, rng: rand.New(rand.NewSource(time.Now().UnixNano()))}
	for _, u := range opts.Peers {
		p.peers = append(p.peers, &peer{base: u})
	}
	return p, nil
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Dispatched:    p.dispatched.Load(),
		Succeeded:     p.succeeded.Load(),
		Fallbacks:     p.fallbacks.Load(),
		Retries:       p.retries.Load(),
		BytesOut:      p.bytesOut.Load(),
		BytesIn:       p.bytesIn.Load(),
		DispatchNanos: p.dispatchNanos.Load(),
	}
}

// For binds the pool to one catalog table, yielding the ShardDispatcher a
// scorpion.Request carries. gen is the coordinator's catalog generation,
// forwarded informationally (the worker pins on name + row count).
func (p *Pool) For(table string, gen int64) scorpion.ShardDispatcher {
	return &tableDispatcher{pool: p, table: table, gen: gen}
}

type tableDispatcher struct {
	pool  *Pool
	table string
	gen   int64
}

// Remote implements scorpion.ShardDispatcher.
func (d *tableDispatcher) Remote(p *scorpion.Plan, algo scorpion.Algorithm) shard.RemoteSearcher {
	if algo != scorpion.Naive && algo != scorpion.MC {
		return nil // DT and friends never dispatch
	}
	return func(ctx context.Context, rs *shard.RemoteShard) (*partition.Outcome, bool) {
		return d.pool.search(ctx, d, p, algo, rs)
	}
}

// buildTask assembles the wire task for one shard from the Plan.
func buildTask(d *tableDispatcher, p *scorpion.Plan, algo scorpion.Algorithm, rs *shard.RemoteShard) *wire.Task {
	lo := rs.View.Off()
	return &wire.Task{
		Version:   wire.Version,
		Table:     d.table,
		Gen:       d.gen,
		Rows:      rs.View.Base().NumRows(),
		SQL:       p.SQL(),
		WindowLo:  lo,
		WindowHi:  lo + rs.View.NumRows(),
		Algorithm: algo.String(),
		Bins:      p.Bins(algo),
		TopK:      p.ShardTopK(algo),
		Attrs:     rs.Attrs,
		Lambda:    rs.Task.Lambda,
		C:         rs.Task.C,
		Workers:   rs.Workers,
		Domains:   wire.EncodeDomains(rs.Domains),
		Outliers:  wire.EncodeGroups(rs.Task.Outliers),
		HoldOuts:  wire.EncodeGroups(rs.Task.HoldOuts),
	}
}

// search runs the dispatch protocol for one shard: serialize once, then
// up to 1+Retries attempts across healthy peers with jittered backoff
// between them. Any terminal failure returns ok = false — the caller
// falls back to the local search path.
func (p *Pool) search(ctx context.Context, d *tableDispatcher, plan *scorpion.Plan, algo scorpion.Algorithm, rs *shard.RemoteShard) (*partition.Outcome, bool) {
	log := obs.LoggerFrom(ctx)
	start := time.Now()
	p.dispatched.Add(1)
	body, err := json.Marshal(buildTask(d, plan, algo, rs))
	if err != nil {
		log.Warn("dispatch: marshal shard task", "shard", rs.Index, "error", err)
		p.fallbacks.Add(1)
		return nil, false
	}
	attempts := 1 + p.opts.Retries
	for attempt := 0; attempt < attempts; attempt++ {
		if ctx.Err() != nil {
			break
		}
		if attempt > 0 {
			p.retries.Add(1)
			if !sleepCtx(ctx, p.jittered(attempt-1)) {
				break
			}
		}
		pr := p.pickPeer(ctx)
		if pr == nil {
			break // no healthy peer: no point burning more attempts
		}
		outcome, transient, err := p.attempt(ctx, pr, body)
		if err == nil {
			p.succeeded.Add(1)
			p.bytesOut.Add(int64(len(body)))
			p.dispatchNanos.Add(time.Since(start).Nanoseconds())
			log.Debug("dispatch: shard answered remotely",
				"shard", rs.Index, "peer", pr.base, "attempt", attempt)
			return outcome, true
		}
		p.bench(pr)
		level := log.Warn
		if transient {
			level = log.Debug
		}
		level("dispatch: shard attempt failed",
			"shard", rs.Index, "peer", pr.base, "attempt", attempt, "error", err)
	}
	p.fallbacks.Add(1)
	log.Warn("dispatch: falling back to local shard search", "shard", rs.Index, "table", d.table)
	return nil, false
}

// attempt performs one POST /shards/search round-trip against a peer.
// transient marks failures worth a Debug instead of a Warn (the retry
// loop treats both the same).
func (p *Pool) attempt(ctx context.Context, pr *peer, body []byte) (_ *partition.Outcome, transient bool, _ error) {
	actx, cancel := context.WithTimeout(ctx, p.opts.ShardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, pr.base+"/shards/search", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := p.opts.Client.Do(req)
	if err != nil {
		return nil, true, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, 256<<20))
	if err != nil {
		return nil, true, fmt.Errorf("read response: %w", err)
	}
	if res.StatusCode != http.StatusOK {
		msg := string(data)
		if len(msg) > 200 {
			msg = msg[:200]
		}
		return nil, res.StatusCode == http.StatusTooManyRequests,
			fmt.Errorf("worker answered %d: %s", res.StatusCode, msg)
	}
	var wres wire.Result
	if err := json.Unmarshal(data, &wres); err != nil {
		return nil, false, fmt.Errorf("decode result: %w", err)
	}
	outcome, err := wire.DecodeOutcome(&wres)
	if err != nil {
		return nil, false, err
	}
	if outcome.Interrupted {
		// A worker-side deadline or cancellation truncated the candidate
		// stream; splicing it into the combiner would silently skew the
		// answer. (worker.Run refuses to serialize these, so seeing one
		// means a skewed or misbehaving peer.)
		return nil, false, fmt.Errorf("worker answered an interrupted outcome")
	}
	p.bytesIn.Add(int64(len(data)))
	return outcome, false, nil
}

// pickPeer selects the next healthy peer round-robin. A peer whose bench
// has expired is probed (GET /healthz, short deadline) before being
// readmitted, so a still-dead worker costs one cheap probe instead of a
// full shard timeout.
func (p *Pool) pickPeer(ctx context.Context) *peer {
	n := len(p.peers)
	startAt := int(p.next.Add(1)-1) % n
	now := time.Now()
	for i := 0; i < n; i++ {
		pr := p.peers[(startAt+i)%n]
		pr.mu.Lock()
		benched := now.Before(pr.badUntil)
		needsProbe := !benched && pr.wasBad
		pr.mu.Unlock()
		if benched {
			continue
		}
		if needsProbe && !p.probe(ctx, pr) {
			p.bench(pr)
			continue
		}
		return pr
	}
	return nil
}

// probe checks a peer's /healthz; success clears its bad mark.
func (p *Pool) probe(ctx context.Context, pr *peer) bool {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, pr.base+"/healthz", nil)
	if err != nil {
		return false
	}
	res, err := p.opts.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return false
	}
	pr.mu.Lock()
	pr.wasBad = false
	pr.mu.Unlock()
	return true
}

// bench sidelines a peer for BenchFor.
func (p *Pool) bench(pr *peer) {
	pr.mu.Lock()
	pr.badUntil = time.Now().Add(p.opts.BenchFor)
	pr.wasBad = true
	pr.mu.Unlock()
}

// jittered is the backoff before retry k (0-based): Backoff·2^k plus up
// to 50% random jitter, capped at 5s.
func (p *Pool) jittered(k int) time.Duration {
	d := p.opts.Backoff << uint(k)
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	p.rngMu.Lock()
	j := time.Duration(p.rng.Int63n(int64(d)/2 + 1))
	p.rngMu.Unlock()
	return d + j
}

// sleepCtx sleeps d or until ctx is done; false means the context won.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
