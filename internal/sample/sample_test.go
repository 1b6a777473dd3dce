package sample

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/scorpiondb/scorpion/internal/relation"
)

func TestInitialRateFormula(t *testing.T) {
	// 1 − (1−eps)^(sr·n) ≥ conf must hold at the returned rate.
	for _, tc := range []struct {
		n    int
		eps  float64
		conf float64
	}{
		{10000, 0.05, 0.95},
		{2000, 0.01, 0.95},
		{100, 0.25, 0.99},
	} {
		sr := InitialRate(tc.n, tc.eps, tc.conf)
		got := 1 - math.Pow(1-tc.eps, sr*float64(tc.n))
		if got < tc.conf-1e-9 {
			t.Errorf("InitialRate(%d, %v, %v) = %v gives confidence %v < %v",
				tc.n, tc.eps, tc.conf, sr, got, tc.conf)
		}
		// Slightly smaller rates must not reach the confidence (minimality),
		// unless the rate is already 1.
		if sr < 1 {
			lower := 1 - math.Pow(1-tc.eps, 0.9*sr*float64(tc.n))
			if lower >= tc.conf {
				t.Errorf("rate %v not minimal for n=%d", sr, tc.n)
			}
		}
	}
}

func TestInitialRateSmallDatasets(t *testing.T) {
	// Small n forces full sampling.
	if sr := InitialRate(10, 0.05, 0.95); sr != 1 {
		t.Errorf("InitialRate(10) = %v, want 1", sr)
	}
}

func TestInitialRateDegenerate(t *testing.T) {
	for _, tc := range []struct {
		n    int
		eps  float64
		conf float64
	}{
		{0, 0.05, 0.95},
		{-5, 0.05, 0.95},
		{100, 0, 0.95},
		{100, 1, 0.95},
		{100, 0.05, 0},
		{100, 0.05, 1},
	} {
		if sr := InitialRate(tc.n, tc.eps, tc.conf); sr != 1 {
			t.Errorf("InitialRate(%v) = %v, want fallback 1", tc, sr)
		}
	}
}

func TestUniformSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	set := relation.FullRowSet(10000)
	s := Uniform(rng, set, 0.1)
	n := s.Count()
	if n < 800 || n > 1200 {
		t.Errorf("sample size %d far from expected 1000", n)
	}
	if !s.Intersect(set).Equal(s) {
		t.Error("sample not a subset")
	}
	// Rate 1 returns everything.
	if Uniform(rng, set, 1).Count() != 10000 {
		t.Error("rate-1 sample incomplete")
	}
}

func TestUniformDeterministic(t *testing.T) {
	set := relation.FullRowSet(1000)
	a := Uniform(rand.New(rand.NewSource(42)), set, 0.3)
	b := Uniform(rand.New(rand.NewSource(42)), set, 0.3)
	if !a.Equal(b) {
		t.Error("same seed produced different samples")
	}
}

func TestSplitRatesProportions(t *testing.T) {
	// All influence mass on the left → left gets the whole budget.
	l, r := SplitRates(10, 0, 100, 500, 500, 0)
	if l <= r {
		t.Errorf("left rate %v should exceed right %v", l, r)
	}
	if l != math.Min(1, 100.0/500) {
		t.Errorf("left rate = %v", l)
	}
	if r != 0 {
		t.Errorf("right rate = %v, want 0 (no influence, no min)", r)
	}
}

func TestSplitRatesFallbackProportional(t *testing.T) {
	l, r := SplitRates(0, 0, 100, 400, 100, 0)
	// Zero influence → 50/50 weights: l = 0.5·100/400, r = 0.5·100/100.
	if math.Abs(l-0.125) > 1e-12 || math.Abs(r-0.5) > 1e-12 {
		t.Errorf("rates = %v, %v", l, r)
	}
}

func TestSplitRatesClamping(t *testing.T) {
	l, r := SplitRates(5, 5, 1000, 10, 10, 0)
	if l != 1 || r != 1 {
		t.Errorf("rates should clamp to 1: %v, %v", l, r)
	}
	l, r = SplitRates(1, 1000, 100, 1000, 1000, 0.05)
	if l < 0.05 {
		t.Errorf("left rate %v below minRate", l)
	}
	_ = r
	// Empty side returns 1 (nothing to sample anyway).
	l, _ = SplitRates(1, 1, 10, 0, 10, 0)
	if l != 1 {
		t.Errorf("empty side rate = %v, want 1", l)
	}
	// Negative influences are treated by magnitude.
	l, r = SplitRates(-10, 0, 100, 500, 500, 0)
	if l <= r {
		t.Errorf("negative mass ignored: %v vs %v", l, r)
	}
}

func TestGroupSeedDeterministicAndDistinct(t *testing.T) {
	// Same (generation, key) → same seed, every time: this is what makes two
	// runs of the same approximate request draw identical samples. The seed
	// is a fixed-basis FNV-1a hash, so these values are also stable across
	// processes and builds — if this test starts failing, run-to-run answer
	// equality of anytime searches silently broke with it.
	if a, b := GroupSeed(1000, "12PM"), GroupSeed(1000, "12PM"); a != b {
		t.Fatalf("GroupSeed not deterministic: %d vs %d", a, b)
	}
	// Different keys and different generations must disperse.
	seen := map[int64]string{}
	for _, gen := range []int64{100, 101, 5000} {
		for _, key := range []string{"11AM", "12PM", "1PM", "g\x1fsub"} {
			s := GroupSeed(gen, key)
			at := fmt.Sprintf("gen=%d key=%q", gen, key)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s and %s", prev, at)
			}
			seen[s] = at
		}
	}
	// A generation bump (an append) must reseed even for the same key.
	if GroupSeed(100, "12PM") == GroupSeed(101, "12PM") {
		t.Fatal("generation bump did not change the seed")
	}
}

func TestGroupSeedShuffleEquality(t *testing.T) {
	// The regression the seed exists to prevent: two shuffles of the same
	// rows under the same (gen, key) are identical; a new generation is not.
	shuffle := func(gen int64, key string) []int {
		rows := make([]int, 200)
		for i := range rows {
			rows[i] = i
		}
		rng := rand.New(rand.NewSource(GroupSeed(gen, key)))
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		return rows
	}
	a, b := shuffle(7, "g1"), shuffle(7, "g1")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run-to-run shuffle mismatch at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := shuffle(8, "g1")
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("append generation produced an identical shuffle")
	}
}
