package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"github.com/scorpiondb/scorpion/internal/wire"
)

// TestExplainIgnoresRetiredAnytimeKnobs pins the compatibility rule for the
// retired anytime knobs: an "epsilon" or "confidence" in an explain body, or
// in an older coordinator's shard task, is ignored and answered exactly —
// an exact answer satisfies every error bound. Values that used to be
// rejected (a negative epsilon, a confidence outside (0,1)) are ignored too.
func TestExplainIgnoresRetiredAnytimeKnobs(t *testing.T) {
	srv := New(testTable(t))
	t.Cleanup(srv.Close)
	srv.EnableWorker()
	body := func(algo string, shards int, knobs map[string]any) map[string]any {
		b := map[string]any{
			"sql":                "SELECT sum(temp), time FROM sensors GROUP BY time",
			"outliers":           []string{"12PM", "1PM"},
			"all_others_holdout": true,
			"algorithm":          algo,
		}
		if shards > 0 {
			b["shards"] = shards
		}
		for k, v := range knobs {
			b[k] = v
		}
		return b
	}
	// matchesPlain posts the body with the knobs, then again with the cache
	// bypassed, and requires the plain body's cache key and explanations.
	matchesPlain := func(t *testing.T, algo string, shards int, knobs map[string]any) {
		t.Helper()
		plain := postExplain(t, srv, body(algo, shards, nil))
		if plain.CacheKey == "" || len(plain.Explanations) == 0 {
			t.Fatalf("plain run: key %q, %d explanations", plain.CacheKey, len(plain.Explanations))
		}
		if plain.Algorithm != algo || (shards > 1 && plain.Shards != shards) {
			t.Fatalf("plain run took %s on %d shards, want %s on %d", plain.Algorithm, plain.Shards, algo, shards)
		}
		got := postExplain(t, srv, body(algo, shards, knobs))
		if got.CacheKey != plain.CacheKey {
			t.Errorf("cache key %q, want the plain key %q", got.CacheKey, plain.CacheKey)
		}
		if !reflect.DeepEqual(got.Explanations, plain.Explanations) {
			t.Errorf("explanations differ from the plain run:\n got %+v\nwant %+v", got.Explanations, plain.Explanations)
		}
		// A search that skips the cache answers exactly as well.
		bypass := map[string]any{"cache": "bypass"}
		for k, v := range knobs {
			bypass[k] = v
		}
		if fresh := postExplain(t, srv, body(algo, shards, bypass)); !reflect.DeepEqual(fresh.Explanations, plain.Explanations) {
			t.Errorf("cache bypassed: explanations differ from the plain run:\n got %+v\nwant %+v", fresh.Explanations, plain.Explanations)
		}
	}

	for _, tc := range []struct {
		name  string
		knobs map[string]any
	}{
		{"epsilon_and_confidence", map[string]any{"epsilon": 0.05, "confidence": 0.9}},
		{"negative_epsilon", map[string]any{"epsilon": -1}},
		{"negative_confidence", map[string]any{"epsilon": 0.05, "confidence": -1}},
		{"confidence_above_1", map[string]any{"epsilon": 0.05, "confidence": 1.5}},
	} {
		t.Run(tc.name, func(t *testing.T) { matchesPlain(t, "naive", 0, tc.knobs) })
	}

	// Every search path ignores the knobs: the sharded coordinator and MC
	// used to prune or rerank under them.
	for _, tc := range []struct {
		name   string
		algo   string
		shards int
	}{
		{"mc/shards=1", "mc", 1},
		{"naive/shards=2", "naive", 2},
		{"mc/shards=2", "mc", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			matchesPlain(t, tc.algo, tc.shards, map[string]any{"epsilon": 0.05, "confidence": 0.9})
		})
	}

	// An older coordinator's shard task still carries the knobs.
	t.Run("shard_task", func(t *testing.T) {
		task, err := json.Marshal(workerTask())
		if err != nil {
			t.Fatal(err)
		}
		var old map[string]any
		if err := json.Unmarshal(task, &old); err != nil {
			t.Fatal(err)
		}
		old["epsilon"], old["confidence"] = 0.05, 0.9
		var decoded wire.Task
		oldTask, _ := json.Marshal(old)
		if err := json.Unmarshal(oldTask, &decoded); err != nil {
			t.Fatalf("a task carrying epsilon does not decode: %v", err)
		}
		outcome := func(task any) []byte {
			t.Helper()
			rec := postJSON(t, srv, "/shards/search", task)
			if rec.Code != http.StatusOK {
				t.Fatalf("shard search = %d (%s)", rec.Code, rec.Body)
			}
			var res wire.Result
			decodeJSON(t, rec, &res)
			if _, err := wire.DecodeOutcome(&res); err != nil {
				t.Fatal(err)
			}
			out, _ := json.Marshal(res)
			return out
		}
		if exact, got := outcome(workerTask()), outcome(old); string(got) != string(exact) {
			t.Errorf("shard task with epsilon:\n got %s\nwant %s", got, exact)
		}
	})
}
