package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/scorpiondb/scorpion/internal/dispatch"
	"github.com/scorpiondb/scorpion/internal/plot"
	"github.com/scorpiondb/scorpion/internal/server"
)

// remoteOptions carries one explanation request aimed at a running
// scorpion-server instead of a locally loaded CSV.
type remoteOptions struct {
	base       string // server base URL, e.g. http://localhost:8080
	async      bool   // submit as a job and poll best-so-far
	follow     bool   // keep re-explaining as the table grows
	appendPath string // CSV batch to append before explaining ("" = none)
	poll       time.Duration
	timeout    time.Duration // the -timeout flag; also caps the transport's dial/TLS phases
	showQuery  bool
	body       *server.ExplainRequest // the /explain request body; its Table and SQL also serve -append and -show-query
}

// remoteResult is the server's /explain response body plus the
// {"error": ...} shape of non-200 answers.
type remoteResult struct {
	server.ExplainResponse
	Error string `json:"error"`
}

// jobView holds the fields of the server's /jobs/{id} response the CLI
// uses.
type jobView struct {
	ID       string              `json:"id"`
	Status   string              `json:"status"`
	Progress *server.JobProgress `json:"progress"`
	Result   *remoteResult       `json:"result"`
	Error    string              `json:"error"`
}

// minPollInterval floors the -poll knob: a zero or negative interval would
// spin the poll loop flat out against the server (and, on interrupt, the
// wind-down loop's unconditional sleep would vanish too).
const minPollInterval = 100 * time.Millisecond

// clampPoll applies the poll-interval floor.
func clampPoll(d time.Duration) time.Duration {
	if d < minPollInterval {
		return minPollInterval
	}
	return d
}

// controlRequestTimeout bounds the quick control-plane requests that run
// off context.Background() — job polls and the cancel DELETE — so a
// wedged server can't hang the wind-down loop forever. Generous relative
// to what these endpoints actually take (milliseconds) because a tripped
// deadline here abandons the job's best-so-far output.
const controlRequestTimeout = 30 * time.Second

// newRemoteClient builds the CLI's HTTP client on the hardened transport
// shared with the server's shard-dispatch path: bounded dial and TLS
// handshake phases so a dead host fails fast instead of wedging commands
// run without -timeout. A -timeout shorter than the default dial bound
// tightens it further. No whole-request client.Timeout is set — a sync
// /explain legitimately holds its response until the search finishes, and
// the -timeout context already bounds command-scoped requests.
func newRemoteClient(timeout time.Duration) *http.Client {
	dial := 10 * time.Second
	if timeout > 0 && timeout < dial {
		dial = timeout
	}
	return dispatch.NewHTTPClient(dial)
}

// runRemote drives an explanation against a running server: synchronously
// through POST /explain, or as an async job polled for best-so-far results
// and canceled (DELETE) when ctx fires.
func runRemote(ctx context.Context, opts remoteOptions) error {
	opts.poll = clampPoll(opts.poll)
	client := newRemoteClient(opts.timeout)
	if opts.appendPath != "" {
		if err := remoteAppend(ctx, client, opts); err != nil {
			return err
		}
	}
	if opts.showQuery {
		if err := remoteQuery(ctx, client, opts); err != nil {
			return err
		}
	}
	if opts.follow {
		return followRemote(ctx, client, opts)
	}
	if !opts.async {
		var res remoteResult
		if code, err := postJSON(ctx, client, opts.base+"/explain", opts.body, &res); err != nil {
			// A client-side -timeout (or Ctrl-C) kills the request; the
			// server cancels the search but the partial answer stays on its
			// side. Only the async path can retrieve it.
			if ctx.Err() != nil {
				return fmt.Errorf("request interrupted (%v); rerun with -async to keep best-so-far results on interrupt", ctx.Err())
			}
			return err
		} else if code != http.StatusOK {
			return fmt.Errorf("server: %s", httpErrorText(code, &res))
		}
		printRemoteResult(&res)
		return nil
	}

	// Async: enqueue, poll, cancel on interrupt.
	var accepted struct {
		JobID string `json:"job_id"`
		Poll  string `json:"poll"`
		Error string `json:"error"`
	}
	if code, err := postJSON(ctx, client, opts.base+"/jobs", opts.body, &accepted); err != nil {
		return err
	} else if code != http.StatusAccepted {
		if accepted.Error != "" {
			return fmt.Errorf("server rejected job: %s (HTTP %d)", accepted.Error, code)
		}
		return fmt.Errorf("server rejected job (HTTP %d)", code)
	}
	fmt.Printf("job %s enqueued; polling every %s (Ctrl-C cancels the job)\n\n", accepted.JobID, opts.poll)

	jobURL := opts.base + "/jobs/" + accepted.JobID
	var lastVersion int64 = -1
	canceled := false
	for {
		// Poll with a background-derived context: an interrupt must still
		// let us cancel the job and fetch its final (partial) state. The
		// per-request deadline keeps a wedged server from hanging the loop.
		var view jobView
		pollCtx, cancelPoll := context.WithTimeout(context.Background(), controlRequestTimeout)
		code, err := getJSON(pollCtx, client, jobURL, &view)
		cancelPoll()
		if err != nil {
			return err
		} else if code != http.StatusOK {
			return fmt.Errorf("poll: HTTP %d", code)
		}
		if view.Progress != nil && view.Progress.Version != lastVersion {
			lastVersion = view.Progress.Version
			line := fmt.Sprintf("[%6.2fs] %s  scorer calls %d",
				float64(view.Progress.ElapsedMS)/1000, view.Status, view.Progress.ScorerCalls)
			if n := len(view.Progress.Shards); n > 0 {
				line += fmt.Sprintf("  [%d shards]", n)
			}
			if len(view.Progress.Best) > 0 {
				b := view.Progress.Best[0]
				line += fmt.Sprintf("  best %.4f WHERE %s", b.Influence, b.Where)
			}
			fmt.Println(line)
		}
		if terminalStatus(view.Status) {
			fmt.Println()
			if view.Result != nil {
				printRemoteResult(view.Result)
			}
			switch view.Status {
			case "done":
				return nil
			case "canceled":
				fmt.Println("job canceled; results above are best-so-far")
				return nil
			case "timeout":
				fmt.Println("job hit the server's explain deadline; results above are best-so-far")
				return nil
			default:
				return fmt.Errorf("job %s: %s", view.Status, view.Error)
			}
		}
		if canceled {
			// ctx.Done is permanently ready now; sleep unconditionally so
			// the wind-down polls stay paced instead of busy-spinning.
			time.Sleep(opts.poll)
			continue
		}
		select {
		case <-ctx.Done():
			canceled = true
			fmt.Println("\ncanceling job...")
			// The command context is already done; the cancel request gets
			// its own bounded context so it can't hang indefinitely either.
			delCtx, cancelDel := context.WithTimeout(context.Background(), controlRequestTimeout)
			final, err := deleteJob(delCtx, client, jobURL)
			cancelDel()
			if err != nil {
				return err
			}
			if final != nil {
				// The cancel raced the job's own completion: the server
				// already removed the terminal job and handed back its
				// final state, so finish from that instead of polling a
				// now-404 id.
				fmt.Println()
				if final.Result != nil {
					printRemoteResult(final.Result)
				}
				if final.Status != "done" {
					fmt.Printf("job ended %s; results above are best-so-far\n", final.Status)
				}
				return nil
			}
			// Keep polling: the job winds down to a terminal state carrying
			// its best-so-far result.
		case <-time.After(opts.poll):
		}
	}
}

// remoteAppend uploads a CSV batch to POST /tables/{name}/rows.
func remoteAppend(ctx context.Context, client *http.Client, opts remoteOptions) error {
	f, err := os.Open(opts.appendPath)
	if err != nil {
		return err
	}
	defer f.Close()
	url := opts.base + "/tables/" + opts.body.Table + "/rows"
	req, err := http.NewRequestWithContext(ctx, "POST", url, f)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/csv")
	var out struct {
		Appended int `json:"appended"`
		Table    struct {
			Rows int   `json:"rows"`
			Gen  int64 `json:"gen"`
		} `json:"table"`
		Error string `json:"error"`
	}
	code, err := doJSON(client, req, &out)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		if out.Error != "" {
			return fmt.Errorf("append: %s (HTTP %d)", out.Error, code)
		}
		return fmt.Errorf("append: HTTP %d", code)
	}
	fmt.Printf("appended %d rows to %s (now %d rows, generation %d)\n\n",
		out.Appended, opts.body.Table, out.Table.Rows, out.Table.Gen)
	return nil
}

// followRemote re-explains on the poll interval until ctx fires, printing a
// result whenever the server computed a fresh one (cold or incrementally
// refreshed). Identical repeats come back "cached" and are skipped, so an
// idle table costs one cache hit per tick.
func followRemote(ctx context.Context, client *http.Client, opts remoteOptions) error {
	first := true
	for {
		var res remoteResult
		code, err := postJSON(ctx, client, opts.base+"/explain", opts.body, &res)
		if err != nil {
			if ctx.Err() != nil {
				return nil // Ctrl-C ends the follow loop cleanly
			}
			return err
		}
		if code != http.StatusOK {
			// Transient server states — an explain hitting the server's
			// deadline (504), a full queue (429), a draining scheduler
			// (503) — must not kill a watcher documented to run until
			// Ctrl-C: report and retry on the next tick. Other statuses
			// (bad request, unknown table) will never succeed; stop.
			if code == http.StatusGatewayTimeout || code == http.StatusTooManyRequests ||
				code == http.StatusServiceUnavailable {
				fmt.Printf("server busy (%s); retrying in %s\n", httpErrorText(code, &res), opts.poll)
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(opts.poll):
				}
				continue
			}
			return fmt.Errorf("server: %s", httpErrorText(code, &res))
		}
		if first || res.Cached == nil || !*res.Cached {
			fmt.Printf("--- %s ---\n", time.Now().Format(time.TimeOnly))
			printRemoteResult(&res)
			fmt.Println()
			first = false
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(opts.poll):
		}
	}
}

// remoteQuery prints the aggregate query result from the server, mirroring
// the local -show-query plot.
func remoteQuery(ctx context.Context, client *http.Client, opts remoteOptions) error {
	var out struct {
		Rows []struct {
			Key   string  `json:"key"`
			Value float64 `json:"value"`
		} `json:"rows"`
		Error string `json:"error"`
	}
	body := server.QueryRequest{Table: opts.body.Table, SQL: opts.body.SQL}
	if code, err := postJSON(ctx, client, opts.base+"/query", body, &out); err != nil {
		return err
	} else if code != http.StatusOK {
		return fmt.Errorf("query: %s", out.Error)
	}
	fmt.Printf("query: %s\n\n", opts.body.SQL)
	points := make([]plot.Point, 0, len(out.Rows))
	for _, row := range out.Rows {
		points = append(points, plot.Point{Label: row.Key, Value: row.Value})
	}
	plot.Render(os.Stdout, points, plot.Options{MaxRows: 40})
	fmt.Println()
	return nil
}

func printRemoteResult(res *remoteResult) {
	note := ""
	if res.Cached != nil && *res.Cached {
		note = "   (served from the server's result cache)"
	} else if res.Refreshed {
		note = "   (refreshed incrementally"
		if res.RefreshedFrom > 0 {
			note += fmt.Sprintf(" from generation %d", res.RefreshedFrom)
		}
		note += ")"
	} else if res.ReusedPartition {
		note = "   (reused cached partitioning)"
	}
	if res.Shards > 1 {
		note += fmt.Sprintf("   (%d shards)", res.Shards)
	}
	fmt.Printf("algorithm: %s   scorer calls: %d   elapsed: %s%s\n\n",
		res.Algorithm, res.ScorerCalls, time.Duration(res.DurationMS)*time.Millisecond, note)
	if res.Interrupted {
		fmt.Printf("search interrupted (%s); showing best results so far\n\n", res.InterruptReason)
	}
	if len(res.Explanations) == 0 {
		fmt.Println("no explanations found")
		return
	}
	for i, e := range res.Explanations {
		fmt.Printf("%2d. influence %10.4f  matches %6d tuples  WHERE %s\n",
			i+1, e.Influence, e.Matched, e.Where)
	}
}

func terminalStatus(s string) bool {
	switch s {
	case "done", "failed", "canceled", "timeout":
		return true
	}
	return false
}

// postJSON posts v as JSON and decodes the response into out (which may
// also capture an "error" field on non-200s).
func postJSON(ctx context.Context, client *http.Client, url string, v any, out any) (int, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", url, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(client, req, out)
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return 0, err
	}
	return doJSON(client, req, out)
}

// deleteJob cancels (or, if already terminal, removes) the job. When the
// server reports it removed a terminal job, the returned view carries that
// job's final state; a nil view means cancellation is in flight and the
// caller should keep polling.
func deleteJob(ctx context.Context, client *http.Client, jobURL string) (*jobView, error) {
	req, err := http.NewRequestWithContext(ctx, "DELETE", jobURL, nil)
	if err != nil {
		return nil, err
	}
	var out struct {
		Removed string   `json:"removed"`
		Job     *jobView `json:"job"`
	}
	code, err := doJSON(client, req, &out)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("cancel: HTTP %d", code)
	}
	if out.Removed != "" {
		return out.Job, nil
	}
	return nil, nil
}

func doJSON(client *http.Client, req *http.Request, out any) (int, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("bad server response (HTTP %d): %s",
				resp.StatusCode, strings.TrimSpace(string(data)))
		}
	}
	return resp.StatusCode, nil
}

// httpErrorText renders a non-200 /explain response for the user.
func httpErrorText(code int, res *remoteResult) string {
	if res.Error != "" {
		return fmt.Sprintf("%s (HTTP %d)", res.Error, code)
	}
	return fmt.Sprintf("HTTP %d", code)
}
