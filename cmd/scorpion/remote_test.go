package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/internal/server"
)

// startServer serves the CSV at path through a real internal/server over
// an httptest listener and returns its base URL.
func startServer(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	table, err := scorpion.ReadCSV(f, scorpion.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(table)
	srv.ProgressInterval = 5 * time.Millisecond
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return hs.URL
}

// writeBigCSV writes a dataset whose NAIVE search over three continuous
// attributes takes far longer than these tests — the remote-cancel target.
func writeBigCSV(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("grp,a1,a2,a3,v\n")
	for g := 0; g < 4; g++ {
		key := []string{"g0", "g1", "g2", "g3"}[g]
		for i := 0; i < 800; i++ {
			v := 10.0
			if g >= 2 && i%7 == 0 {
				v = 90
			}
			fmt.Fprintf(&sb, "%s,%d,%d,%d,%g\n", key, i%100, (i*13)%100, (i*29)%100, v)
		}
	}
	path := t.TempDir() + "/big.csv"
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRemoteSync explains through a running server with -server.
func TestRemoteSync(t *testing.T) {
	url := startServer(t, writeCSV(t))
	err := run(context.Background(), []string{
		"-server", url,
		"-sql", "SELECT avg(v), grp FROM t GROUP BY grp",
		"-outliers", "g2",
		"-all-others",
		"-c", "1",
	})
	if err != nil {
		t.Fatalf("remote sync: %v", err)
	}
}

// TestRemoteAsync submits a job, polls it to completion, and prints the
// result.
func TestRemoteAsync(t *testing.T) {
	url := startServer(t, writeCSV(t))
	err := run(context.Background(), []string{
		"-server", url,
		"-async",
		"-poll", "10ms",
		"-sql", "SELECT avg(v), grp FROM t GROUP BY grp",
		"-outliers", "g2",
		"-all-others",
		"-show-query=false",
	})
	if err != nil {
		t.Fatalf("remote async: %v", err)
	}
}

// TestRemoteAsyncCancel interrupts a long remote job (the Ctrl-C path):
// the CLI cancels the job on the server and drains it to its terminal
// best-so-far state instead of erroring out.
func TestRemoteAsyncCancel(t *testing.T) {
	url := startServer(t, writeBigCSV(t))
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-server", url,
			"-async",
			"-poll", "20ms",
			"-algo", "naive",
			"-sql", "SELECT avg(v), grp FROM t GROUP BY grp",
			"-outliers", "g2,g3",
			"-all-others",
			"-show-query=false",
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("canceled remote job: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("remote cancel did not drain the job")
	}
}

// TestRemoteFlagValidation covers the new flag combinations.
func TestRemoteFlagValidation(t *testing.T) {
	csv := writeCSV(t)
	cases := [][]string{
		{"-table", "x"}, // -table without -server
		{"-async"},      // -async without -server
		{"-server", "http://localhost:1", "-csv", csv, "-sql", "q", "-outliers", "g"}, // both sources
		{"-server", "http://localhost:1"},                                             // missing sql/outliers
	}
	for i, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

// TestPollClampFloor: -poll values at or below zero are floored to a sane
// interval instead of busy-looping the poller; positive values pass
// through.
func TestPollClampFloor(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Second, time.Millisecond} {
		if got := clampPoll(d); got != minPollInterval {
			t.Errorf("clampPoll(%v) = %v, want %v", d, got, minPollInterval)
		}
	}
	for _, d := range []time.Duration{minPollInterval, 250 * time.Millisecond, 5 * time.Second} {
		if got := clampPoll(d); got != d {
			t.Errorf("clampPoll(%v) = %v, want unchanged", d, got)
		}
	}
}

// TestRemoteAsyncPollZeroDoesNotBusyLoop drives a full async run with
// -poll 0 and counts the poll requests that actually hit the server: the
// clamp must pace them (a busy loop would issue thousands in the first
// 100ms alone).
func TestRemoteAsyncPollZeroDoesNotBusyLoop(t *testing.T) {
	f, err := os.Open(writeCSV(t))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	table, err := scorpion.ReadCSV(f, scorpion.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(table)
	srv.ProgressInterval = 5 * time.Millisecond
	t.Cleanup(srv.Close)

	var polls atomic.Int64
	counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == "GET" && strings.HasPrefix(r.URL.Path, "/jobs/") {
			polls.Add(1)
		}
		srv.ServeHTTP(w, r)
	})
	hs := httptest.NewServer(counting)
	t.Cleanup(hs.Close)

	err = run(context.Background(), []string{
		"-server", hs.URL, "-async", "-poll", "0", "-show-query=false",
		"-sql", "SELECT avg(v), grp FROM t GROUP BY grp",
		"-outliers", "g2", "-all-others",
	})
	if err != nil {
		t.Fatal(err)
	}
	// This search finishes almost instantly; a clamped poller gets a
	// handful of polls in, a busy loop gets thousands.
	if got := polls.Load(); got > 50 {
		t.Errorf("%d polls for a near-instant job: -poll 0 busy-looped", got)
	}
}

// TestRemoteExplainBody runs the CLI with -server against a server that
// records each /explain body, and pins the body each flag set sends: the
// knobs always, every other field only off its default, and -workers only
// when given, with 0 sent as a 1-worker grant.
func TestRemoteExplainBody(t *testing.T) {
	f, err := os.Open(writeCSV(t))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	table, err := scorpion.ReadCSV(f, scorpion.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(table)
	t.Cleanup(srv.Close)
	var (
		mu     sync.Mutex
		bodies [][]byte
	)
	recording := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/explain" {
			data, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			bodies = append(bodies, data)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(data))
		}
		srv.ServeHTTP(w, r)
	})
	hs := httptest.NewServer(recording)
	t.Cleanup(hs.Close)

	const sql = "SELECT avg(v), grp FROM t GROUP BY grp"
	body := func(extra map[string]any) map[string]any {
		b := map[string]any{
			"table":    "default",
			"sql":      sql,
			"outliers": []string{"g2"},
			"c":        scorpion.DefaultC,
			"lambda":   scorpion.DefaultLambda,
		}
		for k, v := range extra {
			b[k] = v
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		flags []string
		want  map[string]any
	}{
		{"defaults", nil, body(nil)},
		{"workers 0", []string{"-workers", "0"}, body(map[string]any{"workers": 1})},
		{"workers -1", []string{"-workers", "-1"}, body(map[string]any{"workers": -1})},
		{"workers 2", []string{"-workers", "2"}, body(map[string]any{"workers": 2})},
		{"direction low", []string{"-direction", "LOW"}, body(map[string]any{"direction": "low"})},
		{"direction high", []string{"-direction", "high"}, body(nil)},
		{"holdouts", []string{"-holdouts", "g1"}, body(map[string]any{"holdouts": []string{"g1"}})},
		{"all others", []string{"-all-others"}, body(map[string]any{"all_others_holdout": true})},
		{"no cache", []string{"-no-cache"}, body(map[string]any{"cache": "bypass"})},
		{"shards 2", []string{"-shards", "2"}, body(map[string]any{"shards": 2})},
		{"knobs", []string{"-c", "0", "-lambda", "1", "-algo", "naive", "-topk", "3", "-attrs", "src"},
			body(map[string]any{"c": 0, "lambda": 1, "algorithm": "naive", "top_k": 3, "attributes": []string{"src"}})},
		{"default algo and topk", []string{"-algo", "AUTO", "-topk", "5"}, body(nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mu.Lock()
			bodies = nil
			mu.Unlock()
			args := append([]string{"-server", hs.URL, "-table", "default", "-show-query=false",
				"-sql", sql, "-outliers", "g2"}, tc.flags...)
			if err := run(context.Background(), args); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(bodies) != 1 {
				t.Fatalf("%d /explain requests, want 1", len(bodies))
			}
			var got, want map[string]any
			if err := json.Unmarshal(bodies[0], &got); err != nil {
				t.Fatal(err)
			}
			data, err := json.Marshal(tc.want)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("body %s, want %s", bodies[0], data)
			}
		})
	}
}
