package server

// Tests for the anytime (epsilon/confidence) knobs at the HTTP layer: the
// validation contract (bad knobs are a 400 before any search starts) and the
// cache fingerprint contract (approximate results must never be served to
// exact requests or to runs at a different error bound, while a redundant
// confidence on an exact request must not fragment the cache).

import (
	"net/http"
	"strings"
	"testing"
)

func TestExplainAnytimeKnobValidation(t *testing.T) {
	srv := New(testTable(t))
	t.Cleanup(srv.Close)
	cases := []struct {
		name string
		body map[string]any
		want string // substring the error must name
	}{
		{"negative epsilon", map[string]any{"epsilon": -0.1}, "epsilon"},
		{"confidence above 1", map[string]any{"epsilon": 0.1, "confidence": 1.5}, "confidence"},
		{"negative confidence", map[string]any{"confidence": -1.0}, "confidence"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := map[string]any{
				"sql":                "SELECT avg(temp), time FROM sensors GROUP BY time",
				"outliers":           []string{"12PM", "1PM"},
				"all_others_holdout": true,
			}
			for k, v := range tc.body {
				body[k] = v
			}
			rec := postJSON(t, srv, "/explain", body)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
			}
			if !strings.Contains(rec.Body.String(), tc.want) {
				t.Errorf("error %q does not name %q", rec.Body, tc.want)
			}
		})
	}
}

func TestAnytimeFingerprintSeparatesCacheEntries(t *testing.T) {
	srv := New(bigTable(t))
	t.Cleanup(srv.Close)
	// The default algorithm keeps each run fast; the fingerprint logic under
	// test is algorithm-independent (epsilon keys the entry whether or not
	// the search can act on it).
	body := func(knobs map[string]any) map[string]any {
		b := map[string]any{
			"sql":                "SELECT sum(v), grp FROM t GROUP BY grp",
			"outliers":           []string{"g2", "g3"},
			"all_others_holdout": true,
		}
		for k, v := range knobs {
			b[k] = v
		}
		return b
	}

	exact := postExplain(t, srv, body(nil))
	if exact.Cached == nil || *exact.Cached {
		t.Fatalf("first exact run cached = %v", exact.Cached)
	}

	// An approximate run must not be served the exact result.
	approx := postExplain(t, srv, body(map[string]any{"epsilon": 0.5}))
	if approx.Cached == nil || *approx.Cached {
		t.Fatal("epsilon=0.5 run was served from the exact run's cache entry")
	}
	if approx.CacheKey == exact.CacheKey {
		t.Fatalf("epsilon=0.5 shares cache key %q with the exact run", approx.CacheKey)
	}

	// Repeating the same bound IS a hit, on the approximate entry.
	again := postExplain(t, srv, body(map[string]any{"epsilon": 0.5}))
	if again.Cached == nil || !*again.Cached || again.CacheKey != approx.CacheKey {
		t.Fatalf("repeat epsilon=0.5: cached = %v key %q, want hit on %q",
			again.Cached, again.CacheKey, approx.CacheKey)
	}

	// A different confidence is a different bound, hence a different entry.
	tighter := postExplain(t, srv, body(map[string]any{"epsilon": 0.5, "confidence": 0.8}))
	if tighter.CacheKey == approx.CacheKey || tighter.CacheKey == exact.CacheKey {
		t.Fatalf("epsilon=0.5/confidence=0.8 reused key %q", tighter.CacheKey)
	}
	if tighter.Cached != nil && *tighter.Cached {
		t.Fatal("distinct confidence served from another bound's entry")
	}

	// Requests that resolve to the same Plan share the exact entry rather
	// than fragment the cache: confidence without epsilon is inert (the
	// request is exact), an explicit default equals an unset knob, and the
	// order of the labelled groups is irrelevant.
	for name, knobs := range map[string]map[string]any{
		"confidence without epsilon": {"epsilon": 0.0, "confidence": 0.8},
		"explicit defaults":          {"lambda": 0.5, "c": 0.2, "top_k": 5},
		"outliers reordered":         {"outliers": []string{"g3", "g2"}},
	} {
		same := postExplain(t, srv, body(knobs))
		if same.CacheKey != exact.CacheKey {
			t.Fatalf("%s: key %q, want the exact key %q", name, same.CacheKey, exact.CacheKey)
		}
		if same.Cached == nil || !*same.Cached {
			t.Fatalf("%s: did not hit the exact entry", name)
		}
	}
	held := postExplain(t, srv, body(map[string]any{"all_others_holdout": false, "holdouts": []string{"g0", "g1"}}))
	reordered := postExplain(t, srv, body(map[string]any{"all_others_holdout": false, "holdouts": []string{"g1", "g0"}}))
	if reordered.CacheKey != held.CacheKey || reordered.Cached == nil || !*reordered.Cached {
		t.Fatalf("hold-outs reordered: key %q cached %v, want a hit on %q", reordered.CacheKey, reordered.Cached, held.CacheKey)
	}
}
