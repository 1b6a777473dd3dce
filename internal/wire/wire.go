// Package wire defines the versioned serialization of a shard search task
// and its result — the contract between the shard coordinator and a remote
// worker (scorpion-server -worker).
//
// The envelope is JSON (self-describing, trivially inspectable on the
// wire), but the expensive parts — group provenance RowSets — travel as
// the relation package's versioned binary codec inside []byte fields, so
// a run-encoded shard task costs O(#runs) bytes, not N/8. Candidate
// predicates travel as explicit clause lists plus their canonical
// fingerprint; the decoder rebuilds each predicate through the canonical
// constructors and verifies the fingerprint matches, so a worker running
// subtly different predicate-canonicalisation code is detected instead of
// silently corrupting the combiner's dedupe.
//
// Versioning rules (documented in README "Remote shard workers"):
//
//   - wire.Version gates the JSON envelope. A worker rejects any task
//     whose Version differs from its own; the coordinator treats that
//     rejection as a dead peer and falls back to a local search.
//   - relation.RowSetCodecVersion gates the embedded RowSet payloads
//     independently, so the provenance codec can evolve without a wire
//     envelope bump (and vice versa).
//   - Any field addition that an old worker can safely ignore does NOT
//     bump Version; any semantic change to existing fields does.
//   - A field removal that leaves every answer exact does NOT bump Version
//     either: Task no longer carries the anytime knobs (epsilon,
//     confidence), and a worker ignores them in an older coordinator's
//     task, answering exactly, which satisfies any error bound. Likewise
//     Candidate no longer carries the per-group statistics of §6.3's
//     estimated merge (group_cards, cached_rows, mean_influences): the
//     combiner re-scores every candidate exactly and never read them, so
//     a coordinator ignores them in an older worker's result.
//   - A field removal that would change an answer DOES bump Version.
//     Version 2 dropped the value-perturbation target ("perturb"): a
//     version-2 worker would ignore it in a version-1 task and score by
//     tuple deletion, so it refuses version-1 tasks instead.
package wire

import (
	"fmt"
	"sort"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/relation"
)

// Version is the shard-task envelope version. Bump on any incompatible
// change to Task or Result semantics.
const Version = 2

// Task is one shard's search, fully self-contained: a worker that holds
// the same table needs nothing but this to reproduce the coordinator's
// local shard search bit-for-bit.
type Task struct {
	// Version must equal wire.Version; workers reject anything else.
	Version int `json:"version"`
	// Table names the catalog entry the task runs against; Rows pins the
	// expected base-table row count — a worker whose copy differs answers
	// 409 rather than computing a wrong answer on drifted data. Gen is the
	// coordinator's catalog generation, informational only (generation
	// counters are per-process).
	Table string `json:"table"`
	Gen   int64  `json:"gen,omitempty"`
	Rows  int    `json:"rows"`
	// SQL is the original aggregate query; the worker parses and binds it
	// (never executes it) to recover the aggregate function and column.
	SQL string `json:"sql"`
	// WindowLo/WindowHi delimit this shard's half-open row window in base
	// table ids; group Rows below are window-local.
	WindowLo int `json:"window_lo"`
	WindowHi int `json:"window_hi"`
	// Algorithm selects the partitioner: "naive" or "mc". (DT shards are
	// never dispatched remotely — its parameters don't serialize.)
	Algorithm string `json:"algorithm"`
	// Search knobs, pre-resolved by the coordinator so defaults cannot
	// skew across versions: Bins is the unit grid, TopK the per-shard
	// candidate cut for NAIVE.
	Bins int `json:"bins"`
	TopK int `json:"top_k,omitempty"`
	// Attrs is the predicate search space (A_rest), in the coordinator's
	// canonical order.
	Attrs []string `json:"attrs"`
	// Influence knobs (see influence.Task).
	Lambda float64 `json:"lambda"`
	C      float64 `json:"c"`
	// Workers caps the worker-side search parallelism for this shard.
	Workers int `json:"workers,omitempty"`
	// Domains pins the coordinator's global continuous extents so every
	// shard builds an identical unit grid.
	Domains []Domain `json:"domains,omitempty"`
	// Outliers and HoldOuts are the flagged groups, provenance sliced to
	// the window and shifted to window-local ids.
	Outliers []Group `json:"outliers"`
	HoldOuts []Group `json:"holdouts,omitempty"`
}

// Domain is one pinned continuous extent (predicate.Domain keyed by column
// index; JSON objects can't key maps by int).
type Domain struct {
	Col  int     `json:"col"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
	Card int     `json:"card,omitempty"`
}

// Group is one flagged result group. Rows is the window-local provenance
// RowSet in the relation binary codec (base64 inside JSON).
type Group struct {
	Key       string  `json:"key"`
	Direction float64 `json:"direction,omitempty"`
	Rows      []byte  `json:"rows"`
}

// Result carries a shard search's outcome back: every candidate the
// local searcher would have produced, before the coordinator-side
// top-per-shard cut.
type Result struct {
	Version     int         `json:"version"`
	Candidates  []Candidate `json:"candidates"`
	Work        int64       `json:"work"`
	Interrupted bool        `json:"interrupted,omitempty"`
}

// Candidate is a shard's partition.Candidate: its predicate exploded into
// clauses plus its canonical fingerprint, and its shard-local score. The
// coordinator re-scores every candidate exactly before it reads a penalty,
// so none travels.
type Candidate struct {
	Clauses []Clause `json:"clauses"`
	// Key is the producer's predicate.Key(); the decoder recomputes it
	// from Clauses and rejects the candidate on mismatch.
	Key   string  `json:"key"`
	Score float64 `json:"score"`
}

// Clause is one predicate clause. Kind is "continuous" or "discrete".
type Clause struct {
	Col    int     `json:"col"`
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Lo     float64 `json:"lo,omitempty"`
	Hi     float64 `json:"hi,omitempty"`
	HiInc  bool    `json:"hi_inc,omitempty"`
	Values []int32 `json:"values,omitempty"`
}

// EncodeGroups converts influence groups (window-local RowSets) to wire
// form using the relation binary codec.
func EncodeGroups(groups []influence.Group) []Group {
	out := make([]Group, len(groups))
	for i, g := range groups {
		out[i] = Group{Key: g.Key, Direction: float64(g.Direction), Rows: g.Rows.AppendBinary(nil)}
	}
	return out
}

// DecodeGroups rebuilds influence groups, checking every provenance set
// decodes cleanly and lives in the expected (window-local) universe.
func DecodeGroups(groups []Group, universe int) ([]influence.Group, error) {
	out := make([]influence.Group, len(groups))
	for i, g := range groups {
		rs, used, err := relation.DecodeRowSet(g.Rows)
		if err != nil {
			return nil, fmt.Errorf("wire: group %q: %w", g.Key, err)
		}
		if used != len(g.Rows) {
			return nil, fmt.Errorf("wire: group %q: %d trailing bytes", g.Key, len(g.Rows)-used)
		}
		if rs.Universe() != universe {
			return nil, fmt.Errorf("wire: group %q: universe %d, window %d", g.Key, rs.Universe(), universe)
		}
		out[i] = influence.Group{Key: g.Key, Rows: rs, Direction: influence.Direction(g.Direction)}
	}
	return out, nil
}

// EncodeDomains converts a pinned domain map to wire form.
func EncodeDomains(domains map[int]predicate.Domain) []Domain {
	out := make([]Domain, 0, len(domains))
	for col, d := range domains {
		out = append(out, Domain{Col: col, Lo: d.Lo, Hi: d.Hi, Card: d.Card})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Col < out[j].Col })
	return out
}

// DecodeDomains rebuilds the pinned domain map.
func DecodeDomains(domains []Domain) map[int]predicate.Domain {
	if len(domains) == 0 {
		return nil
	}
	out := make(map[int]predicate.Domain, len(domains))
	for _, d := range domains {
		out[d.Col] = predicate.Domain{Lo: d.Lo, Hi: d.Hi, Card: d.Card}
	}
	return out
}

// EncodeCandidates converts a shard search outcome's candidates to wire
// form, stamping each with its canonical fingerprint.
func EncodeCandidates(cands []partition.Candidate) []Candidate {
	out := make([]Candidate, len(cands))
	for i, c := range cands {
		clauses := c.Pred.Clauses()
		wc := make([]Clause, len(clauses))
		for j, cl := range clauses {
			wc[j] = Clause{
				Col:    cl.Col,
				Name:   cl.Name,
				Kind:   cl.Kind.String(),
				Lo:     cl.Lo,
				Hi:     cl.Hi,
				HiInc:  cl.HiInc,
				Values: cl.Values,
			}
		}
		out[i] = Candidate{Clauses: wc, Key: c.Pred.Key(), Score: c.Score}
	}
	return out
}

// DecodeCandidates rebuilds partition candidates through the canonical
// predicate constructors, verifying each recomputed fingerprint against
// the one on the wire.
func DecodeCandidates(cands []Candidate) ([]partition.Candidate, error) {
	out := make([]partition.Candidate, len(cands))
	for i, c := range cands {
		clauses := make([]predicate.Clause, len(c.Clauses))
		for j, cl := range c.Clauses {
			switch cl.Kind {
			case relation.Continuous.String():
				if cl.Lo > cl.Hi {
					return nil, fmt.Errorf("wire: candidate %d: empty range [%v,%v] on %q", i, cl.Lo, cl.Hi, cl.Name)
				}
				clauses[j] = predicate.NewRangeClause(cl.Col, cl.Name, cl.Lo, cl.Hi, cl.HiInc)
			case relation.Discrete.String():
				clauses[j] = predicate.NewSetClause(cl.Col, cl.Name, cl.Values)
			default:
				return nil, fmt.Errorf("wire: candidate %d: unknown clause kind %q", i, cl.Kind)
			}
		}
		pred, err := predicate.New(clauses...)
		if err != nil {
			return nil, fmt.Errorf("wire: candidate %d: %w", i, err)
		}
		if pred.Key() != c.Key {
			return nil, fmt.Errorf("wire: candidate %d: fingerprint mismatch: rebuilt %q, wire %q", i, pred.Key(), c.Key)
		}
		out[i] = partition.Candidate{Pred: pred, Score: c.Score}
	}
	return out, nil
}

// EncodeOutcome wraps a shard outcome for the wire.
func EncodeOutcome(o *partition.Outcome) *Result {
	return &Result{
		Version:     Version,
		Candidates:  EncodeCandidates(o.Candidates),
		Work:        o.Work,
		Interrupted: o.Interrupted,
	}
}

// DecodeOutcome unwraps a wire result, rejecting version mismatches.
func DecodeOutcome(r *Result) (*partition.Outcome, error) {
	if r.Version != Version {
		return nil, fmt.Errorf("wire: result version %d, want %d", r.Version, Version)
	}
	cands, err := DecodeCandidates(r.Candidates)
	if err != nil {
		return nil, err
	}
	return &partition.Outcome{
		Candidates:  cands,
		Work:        r.Work,
		Interrupted: r.Interrupted,
	}, nil
}

// Validate performs the worker-side structural checks that do not need
// the table: version, window sanity, algorithm, and group presence.
func (t *Task) Validate() error {
	if t.Version != Version {
		return fmt.Errorf("wire: task version %d, want %d", t.Version, Version)
	}
	if t.Table == "" {
		return fmt.Errorf("wire: task has no table")
	}
	if t.SQL == "" {
		return fmt.Errorf("wire: task has no query")
	}
	if t.WindowLo < 0 || t.WindowHi < t.WindowLo {
		return fmt.Errorf("wire: bad window [%d,%d)", t.WindowLo, t.WindowHi)
	}
	switch t.Algorithm {
	case "naive", "mc":
	default:
		return fmt.Errorf("wire: unsupported algorithm %q", t.Algorithm)
	}
	if t.Bins < 0 || t.Bins > partition.MaxGridBins {
		return fmt.Errorf("wire: bins %d outside [0, %d]", t.Bins, partition.MaxGridBins)
	}
	if len(t.Outliers) == 0 {
		return fmt.Errorf("wire: task has no outlier groups")
	}
	if len(t.Attrs) == 0 {
		return fmt.Errorf("wire: task has no search attributes")
	}
	return nil
}
