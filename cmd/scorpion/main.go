// Command scorpion explains outlier aggregate results in a CSV dataset.
//
// Usage:
//
//	scorpion -csv readings.csv \
//	   -sql "SELECT stddev(temp), hour FROM readings GROUP BY hour" \
//	   -outliers h012,h013 -direction high [-holdouts h000,h001 | -all-others] \
//	   [-c 0.2] [-lambda 0.5] [-algo auto|naive|dt|mc] [-attrs a,b,c] [-topk 5] \
//	   [-workers 4] [-timeout 30s]
//
// The tool prints the query result (so the flagged groups can be checked)
// followed by the ranked explanation predicates. The search is fanned out
// over -workers goroutines and runs under a context: Ctrl-C (or -timeout)
// stops it promptly and prints the best explanations found so far.
//
// With -server the tool talks to a running scorpion-server instead of
// loading a CSV: -table picks the dataset from the server's catalog, and
// -async submits the search as a job, polls its best-so-far results while
// it runs, and cancels it (keeping the partial answer) on Ctrl-C:
//
//	scorpion -server http://localhost:8080 -table readings -async \
//	   -sql "SELECT stddev(temp), hour FROM readings GROUP BY hour" \
//	   -outliers h012,h013 -all-others
//
// Streaming ingestion: -append batch.csv appends a CSV batch of rows to the
// table before explaining (locally through an Appender snapshot, remotely
// via POST /tables/{name}/rows — the server then answers the explanation
// warm, re-scoring its previous candidates against the grown groups), and
// -follow keeps re-explaining on the -poll interval as other writers append,
// printing each refreshed answer until Ctrl-C:
//
//	scorpion -server http://localhost:8080 -table readings -follow \
//	   -sql "SELECT stddev(temp), hour FROM readings GROUP BY hour" \
//	   -outliers h012,h013 -all-others
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/plot"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scorpion:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("scorpion", flag.ContinueOnError)
	var (
		csvPath   = fs.String("csv", "", "input CSV file (header row required)")
		sqlText   = fs.String("sql", "", "aggregate GROUP BY query")
		outliers  = fs.String("outliers", "", "comma-separated outlier group keys")
		holdouts  = fs.String("holdouts", "", "comma-separated hold-out group keys")
		allOthers = fs.Bool("all-others", false, "treat every unflagged group as a hold-out")
		direction = fs.String("direction", "high", "error vector: high | low")
		cKnob     = fs.Float64("c", scorpion.DefaultC, "influence/selectivity knob (§7)")
		lambda    = fs.Float64("lambda", scorpion.DefaultLambda, "outlier vs hold-out trade-off")
		algo      = fs.String("algo", "auto", "search algorithm: auto | naive | dt | mc")
		attrs     = fs.String("attrs", "", "comma-separated explanation attributes (default: all unused)")
		topK      = fs.Int("topk", 5, "number of explanations to print")
		discrete  = fs.String("discrete", "", "comma-separated columns to force discrete")
		showQuery = fs.Bool("show-query", true, "print the aggregate query result first")
		workers   = fs.Int("workers", 0, "search worker pool (0 = serial, -1 = GOMAXPROCS)")
		shards    = fs.Int("shards", 0, "horizontal table shards for one search (0 = auto, 1 = unsharded)")
		timeout   = fs.Duration("timeout", 0, "search deadline (0 = none); best-so-far results are printed on expiry")
		serverURL = fs.String("server", "", "base URL of a running scorpion-server (explain remotely instead of loading a CSV)")
		table     = fs.String("table", "", "table name in the server's catalog (with -server; empty = its only table)")
		asyncMode = fs.Bool("async", false, "with -server: enqueue as a job, poll best-so-far, cancel on Ctrl-C")
		pollEvery = fs.Duration("poll", 500*time.Millisecond, "poll interval with -async (job polls) and -follow (re-explains)")
		appendCSV = fs.String("append", "", "CSV batch of rows to append to the table before explaining")
		follow    = fs.Bool("follow", false, "with -server: keep re-explaining as the table grows (Ctrl-C stops)")
		noCache   = fs.Bool("no-cache", false, "with -server: bypass the server's result cache (force a cold search)")
		traceOn   = fs.Bool("trace", false, "print the search's phase-span timeline after the results (local searches)")
		logLevel  = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		logFormat = fs.String("log-format", "text", "log output format: text or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverURL == "" && (*table != "" || *asyncMode || *noCache || *follow) {
		return fmt.Errorf("-table, -async, -no-cache and -follow require -server")
	}
	if *follow && *asyncMode {
		return fmt.Errorf("-follow re-explains synchronously; drop -async")
	}
	if *follow && *noCache {
		// Without the cache, every idle tick would be a full cold search
		// and every tick would reprint an identical answer (the loop skips
		// repeats by their "cached" marker).
		return fmt.Errorf("-follow relies on the server cache to skip idle ticks; drop -no-cache")
	}
	if *serverURL != "" && *appendCSV != "" && *table == "" {
		return fmt.Errorf("-append with -server needs -table (the append endpoint is per table)")
	}
	if *serverURL != "" && *csvPath != "" {
		return fmt.Errorf("-csv and -server are mutually exclusive (the server owns the data)")
	}
	if *serverURL != "" && *traceOn {
		return fmt.Errorf("-trace applies to local searches; the server records job traces in GET /jobs/{id}")
	}
	if *serverURL != "" && *discrete != "" {
		return fmt.Errorf("-discrete only applies to locally loaded CSVs; the server inferred its column kinds at load time")
	}
	if *serverURL != "" {
		if *sqlText == "" || *outliers == "" {
			fs.Usage()
			return fmt.Errorf("-sql and -outliers are required")
		}
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		body := map[string]any{
			"table":    *table,
			"sql":      *sqlText,
			"outliers": splitList(*outliers),
			"c":        *cKnob,
			"lambda":   *lambda,
		}
		// Send workers only when the flag was given, preserving its local
		// semantics: an explicit 0 means serial (a 1-worker grant), not
		// "server default" as a literal 0 would on the wire; -1 stays
		// GOMAXPROCS on both sides. An unset flag defers to the server.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				w := *workers
				if w == 0 {
					w = 1
				}
				body["workers"] = w
			}
		})
		if hs := splitList(*holdouts); len(hs) > 0 {
			body["holdouts"] = hs
		}
		if *allOthers {
			body["all_others_holdout"] = true
		}
		if d := strings.ToLower(*direction); d != "high" {
			body["direction"] = d
		}
		if a := strings.ToLower(*algo); a != "auto" {
			body["algorithm"] = a
		}
		if as := splitList(*attrs); len(as) > 0 {
			body["attributes"] = as
		}
		if *topK != 5 {
			body["top_k"] = *topK
		}
		if *shards != 0 {
			body["shards"] = *shards
		}
		if *noCache {
			body["cache"] = "bypass"
		}
		return runRemote(ctx, remoteOptions{
			base:       strings.TrimRight(*serverURL, "/"),
			table:      *table,
			async:      *asyncMode,
			follow:     *follow,
			appendPath: *appendCSV,
			poll:       *pollEvery,
			timeout:    *timeout,
			showQuery:  *showQuery,
			body:       body,
			sql:        *sqlText,
		})
	}
	if *csvPath == "" || *sqlText == "" || *outliers == "" {
		fs.Usage()
		return fmt.Errorf("-csv, -sql and -outliers are required")
	}

	f, err := os.Open(*csvPath)
	if err != nil {
		return err
	}
	defer f.Close()
	opts := scorpion.CSVOptions{}
	if *discrete != "" {
		opts.Kinds = map[string]scorpion.Kind{}
		for _, col := range splitList(*discrete) {
			opts.Kinds[col] = scorpion.Discrete
		}
	}
	tbl, err := scorpion.ReadCSV(f, opts)
	if err != nil {
		return err
	}
	if *appendCSV != "" {
		// Local streaming ingestion: the batch lands as an Appender
		// snapshot sharing the loaded table's storage, exactly the shape
		// the server's append path publishes.
		af, err := os.Open(*appendCSV)
		if err != nil {
			return err
		}
		rows, err := scorpion.ParseCSVRows(af, tbl.Schema(), scorpion.CSVOptions{})
		af.Close()
		if err != nil {
			return err
		}
		tbl, err = scorpion.AppenderFor(tbl).Append(rows)
		if err != nil {
			return err
		}
		fmt.Printf("appended %d rows from %s (table now %d rows)\n\n", len(rows), *appendCSV, tbl.NumRows())
	}

	req := &scorpion.Request{
		Table:            tbl,
		SQL:              *sqlText,
		Outliers:         splitList(*outliers),
		HoldOuts:         splitList(*holdouts),
		AllOthersHoldOut: *allOthers,
		TopK:             *topK,
		Attributes:       splitList(*attrs),
		Workers:          *workers,
		Shards:           *shards,
	}
	// Setters, not field writes: a flag value is always explicit, so
	// -lambda 0 / -c 0 must reach the scorer as real zeros instead of
	// being mistaken for "unset" and replaced by the defaults.
	req.SetLambda(*lambda)
	req.SetC(*cKnob)
	switch strings.ToLower(*direction) {
	case "high":
		req.Direction = scorpion.TooHigh
	case "low":
		req.Direction = scorpion.TooLow
	default:
		return fmt.Errorf("bad -direction %q (want high or low)", *direction)
	}
	switch strings.ToLower(*algo) {
	case "auto":
		req.Algorithm = scorpion.Auto
	case "naive":
		req.Algorithm = scorpion.Naive
	case "dt":
		req.Algorithm = scorpion.DT
	case "mc":
		req.Algorithm = scorpion.MC
	default:
		return fmt.Errorf("bad -algo %q", *algo)
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx = obs.ContextWithLogger(ctx, obs.NewLogger(os.Stderr, *logLevel, *logFormat))
	var rootSpan *obs.Span
	if *traceOn {
		rootSpan = obs.NewSpan("explain")
		ctx = obs.ContextWithSpan(ctx, rootSpan)
	}
	res, err := scorpion.ExplainContext(ctx, req)
	if rootSpan != nil {
		rootSpan.End()
	}
	interrupted := false
	if err != nil {
		// A cancelled or expired search still carries the best-so-far
		// explanations; print them with a note instead of failing.
		if res == nil || !(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			return err
		}
		interrupted = true
	}

	if *showQuery {
		fmt.Printf("query: %s\n\n", *sqlText)
		flagged := map[string]string{}
		for _, k := range req.Outliers {
			flagged[k] = "outlier"
		}
		for _, k := range req.HoldOuts {
			flagged[k] = "holdout"
		}
		points := make([]plot.Point, 0, len(res.QueryResult.Rows))
		for _, row := range res.QueryResult.Rows {
			mark := flagged[row.Key]
			if mark == "" && *allOthers {
				mark = "holdout"
			}
			points = append(points, plot.Point{Label: row.Key, Value: row.Value, Mark: mark})
		}
		plot.Render(os.Stdout, points, plot.Options{MaxRows: 40})
		fmt.Println()
	}

	fmt.Printf("algorithm: %s   scorer calls: %d   elapsed: %s\n\n",
		res.Stats.Algorithm, res.Stats.ScorerCalls, res.Stats.Duration.Round(time.Millisecond))
	if interrupted {
		fmt.Printf("search interrupted (%s); showing best results so far\n\n", res.Stats.InterruptReason)
	}
	if rootSpan != nil {
		fmt.Println("phase trace:")
		rootSpan.WriteTree(os.Stdout)
		fmt.Println()
	}
	if len(res.Explanations) == 0 {
		fmt.Println("no explanations found")
		return nil
	}
	for i, e := range res.Explanations {
		marker := ""
		if e.InfluencesHoldOut {
			marker = "  [perturbs hold-outs]"
		}
		fmt.Printf("%2d. influence %10.4f  matches %6d tuples  WHERE %s%s\n",
			i+1, e.Influence, e.MatchedOutlierTuples, e.Where, marker)
	}
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
