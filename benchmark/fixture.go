package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scorpiondb/scorpion/internal/catalog"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/relation"
	"github.com/scorpiondb/scorpion/internal/server"
)

// node is one in-process scorpion server behind a real loopback listener.
type node struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
}

// startNode serves a fresh empty-catalog server on 127.0.0.1:0, as a shard
// worker if asked. The default scheduler budget is GOMAXPROCS, which main
// pins to 2.
func startNode(worker bool) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.NewCatalog(catalog.New(), nil)
	if worker {
		srv.EnableWorker()
	}
	n := &node{
		srv:  srv,
		http: &http.Server{Handler: srv},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.http.Serve(ln) // returns ErrServerClosed on close
	}()
	return n, nil
}

// close stops the listener and the scheduler and waits for Serve to return.
func (n *node) close() {
	_ = n.http.Close()
	n.srv.Close()
	<-n.done
}

// harness is what every workload shares: the HTTP client, the request
// digest (set-up plus round 0, per client), the failure log and the tracer.
type harness struct {
	workload string
	tiny     bool // the go-test scale: tables too small for the F1 floor
	client   *http.Client
	tracer   *tracer   // nil when tracing is off
	deadline time.Time // ops not started by then are not sent

	// hashing is on through set-up and round 0, the requests the digest
	// covers; later rounds skip the lock.
	hashing  atomic.Bool
	mu       sync.Mutex
	digests  map[int]hash.Hash // client -> running hash; key -1 is set-up
	failures []failure
}

type failure struct {
	Workload string `json:"workload"`
	Op       string `json:"op"`
	Reason   string `json:"reason"`
}

func newHarness(workload string, tiny bool, deadline time.Time) *harness {
	h := &harness{
		workload: workload,
		tiny:     tiny,
		client: &http.Client{
			Timeout: clientTimeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 8,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		deadline: deadline,
		digests:  map[int]hash.Hash{},
	}
	h.hashing.Store(true)
	return h
}

func (h *harness) close() { h.client.CloseIdleConnections() }

func (h *harness) expired() bool { return time.Now().After(h.deadline) }

// fail records one failed output check or errored op; op names the round,
// client and index so a failure can be found again at the same seed.
func (h *harness) fail(op, reason string) {
	h.mu.Lock()
	h.failures = append(h.failures, failure{h.workload, op, reason})
	n := len(h.failures)
	h.mu.Unlock()
	if n <= 5 {
		logf("FAILED %s %s: %s", h.workload, op, reason)
	}
}

func (h *harness) failureCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.failures)
}

// requestDigest is the hash of every request sent during set-up and round
// 0, clients in order: equal seeds must give equal digests.
func (h *harness) requestDigest() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	clients := make([]int, 0, len(h.digests))
	for cl := range h.digests {
		clients = append(clients, cl)
	}
	sort.Ints(clients)
	all := sha256.New()
	for _, cl := range clients {
		all.Write(h.digests[cl].Sum(nil))
	}
	return hex.EncodeToString(all.Sum(nil)[:12])
}

func (h *harness) hashRequest(cl int, method, path string, body []byte) {
	if !h.hashing.Load() {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.digests[cl]
	if !ok {
		d = sha256.New()
		h.digests[cl] = d
	}
	fmt.Fprintf(d, "%s %s %d\n", method, path, len(body))
	d.Write(body)
}

// reply is one finished HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	ms     float64
	span   *liveSpan
	err    error
}

// do sends one request from client cl (-1 = set-up) and times it on the
// client's clock. With tracing on it opens a span around the exchange and
// tags the request with the span's id.
func (h *harness) do(cl int, parent *liveSpan, name, method, url, path, contentType string, body []byte) reply {
	h.hashRequest(cl, method, path, body)
	req, err := http.NewRequest(method, url+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	sp := h.tracer.start(parent, name)
	if sp != nil {
		req.Header.Set("X-Request-ID", sp.requestID())
	}
	start := time.Now()
	res, err := h.client.Do(req)
	if err != nil {
		sp.end()
		return reply{err: err, span: sp}
	}
	data, err := io.ReadAll(res.Body)
	res.Body.Close()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	sp.end()
	return reply{status: res.StatusCode, body: data, ms: ms, span: sp, err: err}
}

// explainReply is the part of an /explain answer the benchmark reads.
type explainReply struct {
	ScorerCalls  int64 `json:"scorer_calls"`
	Explanations []struct {
		Where     string  `json:"where"`
		Influence float64 `json:"influence"`
	} `json:"explanations"`
	Cached          bool   `json:"cached"`
	Refreshed       bool   `json:"refreshed"`
	ReusedPartition bool   `json:"reused_partition"`
	Shards          int    `json:"shards"`
	Interrupted     bool   `json:"interrupted"`
	Error           string `json:"error"`
	// TraceJSON is the server's phase timeline as sent; traced rounds
	// decode it into Trace, untraced rounds leave it alone.
	TraceJSON json.RawMessage `json:"trace"`
	Trace     []obs.Node      `json:"-"`
}

// explain posts an /explain body and decodes the answer; a transport error,
// a non-200 status or an undecodable body comes back as err.
func (h *harness) explain(cl int, parent *liveSpan, name, url string, body []byte) (reply, *explainReply, error) {
	r := h.do(cl, parent, name, "POST", url, "/explain", "application/json", body)
	if r.err != nil {
		return r, nil, r.err
	}
	var out explainReply
	if err := json.Unmarshal(r.body, &out); err != nil {
		return r, nil, fmt.Errorf("status %d, undecodable body: %v", r.status, err)
	}
	if r.status != http.StatusOK {
		return r, &out, fmt.Errorf("status %d: %s", r.status, out.Error)
	}
	if out.Interrupted {
		return r, &out, fmt.Errorf("interrupted search")
	}
	if r.span != nil && json.Unmarshal(out.TraceJSON, &out.Trace) == nil && len(out.Trace) > 0 {
		h.tracer.graft(r.span, &out.Trace[0])
		r.span.attr("trace_bytes", len(out.TraceJSON))
		r.span.attr("response_bytes", len(r.body))
	}
	return r, &out, nil
}

// upload posts a CSV as table name; set-up traffic (client -1).
func (h *harness) upload(cl int, url, name string, csv []byte) error {
	r := h.do(cl, nil, "upload", "POST", url, "/tables?name="+name, "text/csv", csv)
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusCreated {
		return fmt.Errorf("upload %s: status %d: %s", name, r.status, r.body)
	}
	return nil
}

func (h *harness) dropTable(cl int, url, name string) error {
	r := h.do(cl, nil, "drop", "DELETE", url, "/tables/"+name, "", nil)
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("drop %s: status %d: %s", name, r.status, r.body)
	}
	return nil
}

// answer is the top explanation of a run, the unit the output checks compare.
type answer struct {
	where     string
	influence float64
}

// equal compares the predicate exactly and the influence to nine digits: the
// server's answer crosses JSON, the library's does not.
func (a answer) equal(b answer) bool {
	return a.where == b.where && math.Abs(a.influence-b.influence) <= 1e-9*math.Max(1, math.Abs(b.influence))
}

func (a answer) String() string {
	return fmt.Sprintf("%q@%s", a.where, strconv.FormatFloat(a.influence, 'g', 12, 64))
}

func topOf(r *explainReply) (answer, bool) {
	if r == nil || len(r.Explanations) == 0 {
		return answer{}, false
	}
	return answer{r.Explanations[0].Where, r.Explanations[0].Influence}, true
}

// dataset is one generated table in the forms the benchmark needs: the CSV
// the server is sent, the table the library parses from that same CSV (so
// both sides see identical floats), and the generator's ground truth.
type dataset struct {
	cfg         tableConfig
	csv         []byte
	table       *relation.Table
	outlierKeys []string
	// outerRows are the rows planted inside the outer cube of the outlier
	// groups: the truth the cold-naive F1 check scores against.
	outerRows *relation.RowSet
}

// tableConfig sizes one table of the paper's synthetic family (section 8.1):
// groups of tuples with dims uniform attributes in [0,100], the first
// outliers groups hiding a high-valued inner cube nested in a medium-valued
// outer cube, everything else N(10,10).
//
// content picks the tuples and is a constant of the workload; order, which
// comes from --seed, shuffles the rows inside every group. The searches are
// greedy, and how much work MC and DT do on a table depends on the tuples
// drawn: with per-seed tuples one workload's p50 swung between 27 and 146 ms
// from seed to seed, far beyond any bound set here, so no two seeds could be
// compared. A workload therefore always asks about the same tuples, and the
// seed decides the bytes that carry them and the traffic: row order, the c
// sequence, which rows each append batch holds.
type tableConfig struct {
	dims, groups, perGroup, outliers int
	content, order                   int64
}

const (
	outerLo, outerHi = 20.0, 80.0
	innerLo, innerHi = 45.0, 65.0
	outerFrac        = 0.25
	innerFrac        = 0.0625
	highMean         = 80.0
)

func dimNames(dims int) []string {
	out := make([]string, dims)
	for i := range out {
		out[i] = "a" + strconv.Itoa(i+1)
	}
	return out
}

func inCube(pt []float64, lo, hi float64) bool {
	for _, x := range pt {
		if x < lo || x > hi {
			return false
		}
	}
	return true
}

// generateRows returns the table's CSV lines (no header), group-contiguous
// and in the generator's own order, and for every row whether it was planted
// in the outer cube.
func generateRows(cfg tableConfig) (lines [][]byte, isOuter []bool) {
	rng := rand.New(rand.NewSource(cfg.content))
	pt := make([]float64, cfg.dims)
	uniform := func(lo, hi float64) {
		for i := range pt {
			pt[i] = lo + rng.Float64()*(hi-lo)
		}
	}
	for g := 0; g < cfg.groups; g++ {
		for i := 0; i < cfg.perGroup; i++ {
			mean := 10.0
			switch u := rng.Float64(); {
			case g >= cfg.outliers:
				uniform(0, 100)
			case u < innerFrac:
				uniform(innerLo, innerHi)
				mean = highMean
			case u < outerFrac:
				for uniform(outerLo, outerHi); inCube(pt, innerLo, innerHi); {
					uniform(outerLo, outerHi)
				}
				mean = (highMean + 10) / 2
			default:
				for uniform(0, 100); inCube(pt, outerLo, outerHi); {
					uniform(0, 100)
				}
			}
			planted := mean > 10
			v := mean + rng.NormFloat64()*10
			if v < 0 {
				v = 0 // SUM's anti-monotonicity check needs non-negative values
			}
			line := fmt.Appendf(nil, "g%02d,%s", g, strconv.FormatFloat(v, 'g', -1, 64))
			for _, x := range pt {
				line = append(line, ',')
				line = strconv.AppendFloat(line, x, 'g', -1, 64)
			}
			lines = append(lines, append(line, '\n'))
			isOuter = append(isOuter, planted)
		}
	}
	return lines, isOuter
}

// shuffleGroups reorders the rows inside every group of perGroup lines.
func shuffleGroups(lines [][]byte, isOuter []bool, perGroup int, rng *rand.Rand) {
	for lo := 0; lo < len(lines); lo += perGroup {
		rng.Shuffle(perGroup, func(a, b int) {
			lines[lo+a], lines[lo+b] = lines[lo+b], lines[lo+a]
			isOuter[lo+a], isOuter[lo+b] = isOuter[lo+b], isOuter[lo+a]
		})
	}
}

func csvHeader(dims int) []byte {
	return []byte("g,v," + strings.Join(dimNames(dims), ",") + "\n")
}

// datasetFromLines parses header plus lines the way the server will.
func datasetFromLines(cfg tableConfig, lines [][]byte, isOuter []bool) (*dataset, error) {
	csv := append(csvHeader(cfg.dims), bytes.Join(lines, nil)...)
	tbl, err := relation.ReadCSV(bytes.NewReader(csv), relation.CSVOptions{})
	if err != nil {
		return nil, fmt.Errorf("parse csv: %w", err)
	}
	ds := &dataset{cfg: cfg, csv: csv, table: tbl, outerRows: relation.NewRowSet(tbl.NumRows())}
	for g := 0; g < cfg.outliers; g++ {
		ds.outlierKeys = append(ds.outlierKeys, fmt.Sprintf("g%02d", g))
	}
	for r, planted := range isOuter {
		if planted {
			ds.outerRows.Add(r)
		}
	}
	return ds, nil
}

// outlierRows is the union of the outlier groups' provenance.
func (ds *dataset) outlierRows(qres *query.Result) *relation.RowSet {
	gO := relation.NewRowSet(ds.table.NumRows())
	for _, key := range ds.outlierKeys {
		if row, ok := qres.Lookup(key); ok {
			gO.Or(row.Group)
		}
	}
	return gO
}

func newDataset(cfg tableConfig) (*dataset, error) {
	lines, isOuter := generateRows(cfg)
	shuffleGroups(lines, isOuter, cfg.perGroup, rand.New(rand.NewSource(cfg.order)))
	return datasetFromLines(cfg, lines, isOuter)
}

// explainBody renders an /explain request. Field order is fixed so equal
// inputs give equal bytes.
type explainBody struct {
	Table            string   `json:"table"`
	SQL              string   `json:"sql"`
	Outliers         []string `json:"outliers"`
	AllOthersHoldOut bool     `json:"all_others_holdout"`
	Attributes       []string `json:"attributes,omitempty"`
	C                *float64 `json:"c,omitempty"`
	Algorithm        string   `json:"algorithm"`
	Workers          int      `json:"workers,omitempty"`
	Shards           int      `json:"shards,omitempty"`
	Cache            string   `json:"cache,omitempty"`
}

func (b explainBody) bytes() []byte {
	data, err := json.Marshal(b)
	if err != nil {
		panic(err) // strings, numbers and bools always encode
	}
	return data
}
