package scorpion

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/shard"
)

// DefaultC is the default §7 selectivity knob value.
const DefaultC = 0.2

// DefaultLambda is the default hold-out trade-off.
const DefaultLambda = 0.5

// defaultTopK is how many explanations a request returns when TopK is unset.
const defaultTopK = 5

// defaultGridBins is the continuous grid NAIVE and MC search when the
// request leaves Bins unset (the paper's 15).
const defaultGridBins = 15

// autoShardRows is the row volume one shard should cover when Shards is
// auto (0): tables under 2× this never auto-shard.
const autoShardRows = 1 << 17

// maxShards caps the slice count: beyond this, per-shard setup (scorer
// states, clause grids) outweighs any slicing benefit.
const maxShards = 64

// maxAutoSerialShards bounds auto-sharding below the worker budget. The
// sharding win is meant to be algorithmic (skipped hold-out-only slices,
// window-local scans), so a serial request on a huge table would still
// benefit from a handful of slices; more than the budget only helps up to
// this point. BENCH_shard.json, at Workers 1 and 2, no longer shows that
// win on its 120,000-row table (ROADMAP P3).
const maxAutoSerialShards = 8

// Plan is a Request resolved once: every knob validated and every default
// filled in. The run spine, the shard coordinator, remote dispatch and the
// server's cache all read the Plan instead of re-deriving the request, and
// its canonical encoding (Key) is the result-cache key. A Plan is
// immutable.
type Plan struct {
	req Request

	lambda, c float64
	topK      int
	// shards is the slice count (1 = unsharded); workers reads 0 as serial.
	shards, workers    int
	interval           time.Duration
	bins               int      // the grid NAIVE and MC search
	outliers, holdOuts []string // sorted, as the key encodes them
}

// Plan validates r and resolves its defaults. It fails, naming the knob,
// on a request no search could answer: no table, SQL or outliers, shards
// or bins below 0, bins above 1,024, λ outside [0, 1], c below 0, λ or c
// non-finite, or an outlier or hold-out key listed twice.
func (r *Request) Plan() (*Plan, error) {
	p := &Plan{req: *r, lambda: DefaultLambda, c: DefaultC, topK: r.TopK, workers: r.Workers,
		interval: r.ProgressInterval, bins: r.Bins}
	if r.Lambda != 0 || r.lambdaSet {
		p.lambda = r.Lambda
	}
	if r.C != 0 || r.cSet {
		p.c = r.C
	}
	// The comparisons are written so that NaN, which fails every one of
	// them, is refused too.
	switch {
	case r.Table == nil:
		return nil, fmt.Errorf("scorpion: request has no table")
	case r.SQL == "":
		return nil, fmt.Errorf("scorpion: request has no SQL query")
	case len(r.Outliers) == 0:
		return nil, fmt.Errorf("scorpion: request flags no outlier results")
	case r.Shards < 0:
		return nil, fmt.Errorf("scorpion: shards %d must be >= 0 (0 = auto)", r.Shards)
	case r.Bins < 0:
		return nil, fmt.Errorf("scorpion: bins %d must be >= 0 (0 = %d)", r.Bins, defaultGridBins)
	case r.Bins > partition.MaxGridBins:
		return nil, fmt.Errorf("scorpion: bins %d must be <= %d", r.Bins, partition.MaxGridBins)
	case !(p.lambda >= 0 && p.lambda <= 1):
		return nil, fmt.Errorf("scorpion: lambda %v must lie in [0, 1]", p.lambda)
	case !(p.c >= 0) || math.IsInf(p.c, 1):
		return nil, fmt.Errorf("scorpion: c %v must be finite and >= 0", p.c)
	}
	if p.topK <= 0 {
		p.topK = defaultTopK
	}
	if p.workers == 0 {
		p.workers = 1
	}
	if p.interval <= 0 {
		p.interval = 200 * time.Millisecond
	}
	if p.bins == 0 {
		p.bins = defaultGridBins
	}
	// Auto shards pick one slice per autoShardRows rows, up to the worker
	// budget (at least maxAutoSerialShards); every count is clamped.
	if p.shards = r.Shards; p.shards == 0 {
		workers := p.workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		p.shards = min(r.Table.NumRows()/autoShardRows, max(workers, maxAutoSerialShards))
	}
	p.shards = max(1, min(p.shards, maxShards))
	// Unsharded DT and MC run on one goroutine, so they hold one worker.
	// This comes after the shard count, which the ask still picks.
	if (r.Algorithm == DT || r.Algorithm == MC) && p.shards <= 1 {
		p.workers = 1
	}
	p.outliers, p.holdOuts = sortedKeys(r.Outliers), sortedKeys(r.HoldOuts)
	// A repeated label would weigh its group twice; sorted, it is adjacent.
	for i, keys := range [][]string{p.outliers, p.holdOuts} {
		for j := 1; j < len(keys); j++ {
			if keys[j] == keys[j-1] {
				return nil, fmt.Errorf("scorpion: %s %q listed twice", [2]string{"outlier", "hold-out"}[i], keys[j])
			}
		}
	}
	return p, nil
}

// sortedKeys returns keys in sorted order, copying only when they are not
// sorted already.
func sortedKeys(keys []string) []string {
	if slices.IsSorted(keys) {
		return keys
	}
	return slices.Sorted(slices.Values(keys))
}

// dtPath reports whether a search resolved to algo runs unsharded DT — the
// only search whose partitioning a Session can reuse across c.
func (p *Plan) dtPath(algo Algorithm) bool { return algo == DT && p.shards <= 1 }

// MayReusePartition reports whether the request can take a Session's DT
// path: it asks for DT, or for Auto (which may resolve to DT), and resolves
// unsharded. Such a run never refreshes warm, so it has no cold reason.
func (p *Plan) MayReusePartition() bool {
	return (p.req.Algorithm == Auto || p.req.Algorithm == DT) && p.dtPath(DT)
}

// Workers is the worker budget the search runs on: the request's ask
// (negative for GOMAXPROCS), or 1 when the ask is unset or the request is
// for unsharded DT or MC.
func (p *Plan) Workers() int { return p.workers }

// SQL is the request's aggregate query.
func (p *Plan) SQL() string { return p.req.SQL }

// Bins is the continuous grid a search resolved to algo runs over: NAIVE's
// and MC's clause grid, 0 for DT, which has none.
func (p *Plan) Bins(algo Algorithm) int {
	if algo == Naive || algo == MC {
		return p.bins
	}
	return 0
}

// ShardTopK is how many candidates one shard of a search resolved to algo
// returns: deeper than the final top-k for NAIVE, whose shard-local
// rankings are window estimates; 0 (the searcher's own cut) otherwise.
func (p *Plan) ShardTopK(algo Algorithm) int {
	if algo == Naive {
		return shard.DefaultTopPerShard
	}
	return 0
}

// Key is "<prefix>|<hash>" over the canonical encoding of every resolved
// input that can change the answer: an explicit default shares the unset
// knob's key, an explicit zero does not.
func (p *Plan) Key(prefix string) string { return p.key(prefix, true) }

// SessionKey is Key without c: the requests one Session serves.
func (p *Plan) SessionKey(prefix string) string { return p.key(prefix, false) }

func (p *Plan) key(prefix string, withC bool) string {
	var buf [512]byte
	b := p.encode(buf[:0])
	if withC {
		b = appendFloat(b, p.c)
	}
	sum := sha256.Sum256(b)
	return prefix + "|" + hex.EncodeToString(sum[:12])
}

// encode appends the canonical encoding of everything but c (DESIGN.md
// lists what it covers and why the rest is answer-neutral).
func (p *Plan) encode(b []byte) []byte {
	r := &p.req
	b = appendString(b, r.SQL)
	b = binary.AppendUvarint(b, uint64(len(p.outliers)))
	for _, key := range p.outliers {
		b = appendFloat(appendString(b, key), float64(r.directionFor(key)))
	}
	b = binary.AppendUvarint(b, uint64(len(p.holdOuts)))
	for _, key := range p.holdOuts {
		b = appendString(b, key)
	}
	// Explicit hold-outs win over AllOthersHoldOut: the losing knob is
	// inert.
	allOthers := byte(0)
	if len(r.HoldOuts) == 0 && r.AllOthersHoldOut {
		allOthers = 1
	}
	b = append(b, allOthers)
	b = binary.AppendUvarint(b, uint64(len(r.Attributes)))
	for _, a := range r.Attributes {
		b = appendString(b, a)
	}
	b = appendFloat(b, p.lambda)
	b = binary.AppendVarint(b, int64(r.Algorithm))
	b = binary.AppendVarint(b, int64(p.topK))
	b = binary.AppendVarint(b, int64(p.bins))
	return binary.AppendVarint(b, int64(r.Shards))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
