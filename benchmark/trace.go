package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/scorpiondb/scorpion/internal/obs"
)

// spanRec is one recorded span. Times are microseconds since the tracer's
// origin. Parent 0 means a root; spans of one HTTP op share Request.
type spanRec struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"`
	Name    string         `json:"name"`
	Request string         `json:"request,omitempty"`
	StartUS float64        `json:"start_us"`
	EndUS   float64        `json:"end_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps benchmark-side spans in memory until the traced round ends.
// A nil tracer records nothing: start returns a nil span whose methods are
// no-ops, so untraced rounds run the same code without the bookkeeping.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []*spanRec
}

type liveSpan struct {
	t   *tracer
	rec *spanRec
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.origin).Nanoseconds()) / 1e3
}

func (t *tracer) add(parent *liveSpan, name string, startUS, endUS float64) *liveSpan {
	rec := &spanRec{Name: name, StartUS: startUS, EndUS: endUS}
	if parent != nil {
		rec.Parent = parent.rec.ID
		rec.Request = parent.rec.Request
	}
	t.mu.Lock()
	rec.ID = len(t.spans) + 1
	if rec.Request == "" {
		rec.Request = fmt.Sprintf("bench-%d", rec.ID)
	}
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
	return &liveSpan{t: t, rec: rec}
}

func (t *tracer) start(parent *liveSpan, name string) *liveSpan {
	if t == nil {
		return nil
	}
	return t.add(parent, name, t.us(time.Now()), 0)
}

func (s *liveSpan) end() {
	if s != nil {
		s.rec.EndUS = s.t.us(time.Now())
	}
}

func (s *liveSpan) attr(key string, val any) {
	if s == nil {
		return
	}
	if s.rec.Attrs == nil {
		s.rec.Attrs = map[string]any{}
	}
	s.rec.Attrs[key] = val
}

func (s *liveSpan) requestID() string { return s.rec.Request }

func (s *liveSpan) ms() float64 {
	if s == nil {
		return 0
	}
	return (s.rec.EndUS - s.rec.StartUS) / 1e3
}

// graft hangs the server's own phase timeline (the "trace" of an /explain
// answer, offsets relative to its root) under the client span of the same
// request. The client cannot see when the job started, only how long it
// ran, so the root is anchored to the END of the exchange: what precedes a
// job (decode, admission, queue wait) varies, what follows it (encoding a
// few KB) barely does.
func (t *tracer) graft(parent *liveSpan, n *obs.Node) {
	if t == nil || parent == nil {
		return
	}
	rootStart := parent.rec.EndUS - n.DurationMS*1e3
	if rootStart < parent.rec.StartUS {
		rootStart = parent.rec.StartUS
	}
	t.graftAt(parent, n, rootStart, parent.rec.EndUS)
}

func (t *tracer) graftAt(parent *liveSpan, n *obs.Node, originUS, limitUS float64) {
	start := originUS + n.StartMS*1e3
	end := start + n.DurationMS*1e3
	if end > limitUS {
		end = limitUS
	}
	if start > end {
		start = end
	}
	sp := t.add(parent, "srv:"+n.Name, start, end)
	for k, v := range n.Attrs {
		sp.attr(k, v)
	}
	for i := range n.Children {
		t.graftAt(sp, &n.Children[i], originUS, end)
	}
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its children cover (children clipped to the parent, overlaps counted once).
func selfTimes(spans []*spanRec) map[int]float64 {
	type iv struct{ lo, hi float64 }
	kids := map[int][]iv{}
	byID := map[int]*spanRec{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.StartUS, s.EndUS
		if lo < p.StartUS {
			lo = p.StartUS
		}
		if hi > p.EndUS {
			hi = p.EndUS
		}
		if hi > lo {
			kids[p.ID] = append(kids[p.ID], iv{lo, hi})
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered, edge := 0.0, s.StartUS
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			if c.lo > edge {
				edge = c.lo
			}
			covered += c.hi - edge
			edge = c.hi
		}
		self[s.ID] = (s.EndUS - s.StartUS) - covered
	}
	return self
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// selfTable sums self time by span name over the subtrees of the given
// roots, and returns for each root the ratio of its subtree's summed self
// time to its own duration (1 when no sibling spans overlap).
func selfTable(spans []*spanRec, isRoot func(*spanRec) bool) (rows []selfRow, ratios []float64) {
	self := selfTimes(spans)
	rootOf := map[int]int{}
	for _, s := range spans { // parents are always recorded before children
		switch {
		case isRoot(s):
			rootOf[s.ID] = s.ID
		case rootOf[s.Parent] != 0:
			rootOf[s.ID] = rootOf[s.Parent]
		}
	}
	perRoot := map[int]float64{}
	byName := map[string]*selfRow{}
	total := 0.0
	for _, s := range spans {
		root := rootOf[s.ID]
		if root == 0 {
			continue
		}
		perRoot[root] += self[s.ID]
		row := byName[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.SelfMS += self[s.ID] / 1e3
		total += self[s.ID] / 1e3
	}
	for _, r := range byName {
		r.Share = ratio(r.SelfMS, total)
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	for _, s := range spans {
		if isRoot(s) && s.EndUS > s.StartUS {
			ratios = append(ratios, perRoot[s.ID]/(s.EndUS-s.StartUS))
		}
	}
	return rows, ratios
}

// traceFile is what one traced run leaves in out/trace-<workload>.json.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Spans    []*spanRec `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
