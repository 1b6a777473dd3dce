package scorpion

// Failure-injection tests: malformed inputs, degenerate data, NaN/Inf
// values, and empty corners of the API must fail cleanly (errors or
// well-defined zero-influence behavior), never panic.

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/scorpiondb/scorpion/internal/catalog"
)

func TestExplainMalformedCSVKinds(t *testing.T) {
	// Discrete-valued column forced continuous must fail at load time —
	// covered in relation — but type-inferred tables whose aggregate
	// column ends up discrete must fail at bind time.
	csv := "g,v\na,x\nb,y\n"
	tbl, err := ReadCSV(strings.NewReader(csv), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Explain(&Request{
		Table:     tbl,
		SQL:       "SELECT avg(v), g FROM t GROUP BY g",
		Outliers:  []string{"a"},
		Direction: TooHigh,
	})
	if err == nil {
		t.Fatal("expected error for discrete aggregate column")
	}
}

func TestExplainNaNValues(t *testing.T) {
	schema, _ := NewSchema(
		Column{Name: "g", Kind: Discrete},
		Column{Name: "x", Kind: Continuous},
		Column{Name: "v", Kind: Continuous},
	)
	b := NewBuilder(schema)
	for i := 0; i < 40; i++ {
		v := 10.0
		if i%20 == 5 {
			v = math.NaN()
		}
		if i >= 20 && i%3 == 0 {
			v = 100
		}
		b.MustAppend(Row{
			S([]string{"hold", "out"}[i/20]),
			F(float64(i % 20)),
			F(v),
		})
	}
	res, err := Explain(&Request{
		Table:            b.Build(),
		SQL:              "SELECT avg(v), g FROM t GROUP BY g",
		Outliers:         []string{"out"},
		AllOthersHoldOut: true,
		Direction:        TooHigh,
		C:                0.5,
	})
	if err != nil {
		t.Fatalf("NaN data: %v", err)
	}
	// Influences must never be NaN even with NaN inputs in play.
	for _, e := range res.Explanations {
		if math.IsNaN(e.Influence) || math.IsInf(e.Influence, 0) {
			t.Fatalf("explanation %q has non-finite influence %v", e.Where, e.Influence)
		}
	}
}

func TestExplainSingleTupleGroups(t *testing.T) {
	schema, _ := NewSchema(
		Column{Name: "g", Kind: Discrete},
		Column{Name: "a", Kind: Continuous},
		Column{Name: "v", Kind: Continuous},
	)
	b := NewBuilder(schema)
	b.MustAppend(Row{S("g1"), F(1), F(10)})
	b.MustAppend(Row{S("g2"), F(2), F(99)})
	res, err := Explain(&Request{
		Table:     b.Build(),
		SQL:       "SELECT avg(v), g FROM t GROUP BY g",
		Outliers:  []string{"g2"},
		HoldOuts:  []string{"g1"},
		Direction: TooHigh,
	})
	if err != nil {
		t.Fatalf("single-tuple groups: %v", err)
	}
	// Deleting the only tuple would erase the result: AVG treats it as
	// non-influential, so everything scores zero — but nothing panics.
	for _, e := range res.Explanations {
		if math.IsNaN(e.Influence) {
			t.Fatal("NaN influence")
		}
	}
}

func TestExplainConstantAttribute(t *testing.T) {
	// An explanation attribute with a single constant value offers no
	// splits; the search must still return (possibly trivial) results.
	schema, _ := NewSchema(
		Column{Name: "g", Kind: Discrete},
		Column{Name: "constant", Kind: Continuous},
		Column{Name: "v", Kind: Continuous},
	)
	b := NewBuilder(schema)
	for i := 0; i < 30; i++ {
		v := 10.0
		if i >= 15 {
			v = 50
		}
		b.MustAppend(Row{S([]string{"a", "b"}[i/15]), F(7), F(v)})
	}
	_, err := Explain(&Request{
		Table:            b.Build(),
		SQL:              "SELECT avg(v), g FROM t GROUP BY g",
		Outliers:         []string{"b"},
		AllOthersHoldOut: true,
		Direction:        TooHigh,
	})
	if err != nil {
		t.Fatalf("constant attribute: %v", err)
	}
}

func TestExplainNoRestAttributes(t *testing.T) {
	// Every column grouped or aggregated: nothing to explain with.
	schema, _ := NewSchema(
		Column{Name: "g", Kind: Discrete},
		Column{Name: "v", Kind: Continuous},
	)
	b := NewBuilder(schema)
	b.MustAppend(Row{S("a"), F(1)})
	b.MustAppend(Row{S("b"), F(2)})
	_, err := Explain(&Request{
		Table:     b.Build(),
		SQL:       "SELECT avg(v), g FROM t GROUP BY g",
		Outliers:  []string{"b"},
		Direction: TooHigh,
	})
	if err == nil || !strings.Contains(err.Error(), "no attributes") {
		t.Fatalf("expected no-attributes error, got %v", err)
	}
}

func TestExplainEmptyTable(t *testing.T) {
	schema, _ := NewSchema(
		Column{Name: "g", Kind: Discrete},
		Column{Name: "a", Kind: Continuous},
		Column{Name: "v", Kind: Continuous},
	)
	tbl := NewBuilder(schema).Build()
	_, err := Explain(&Request{
		Table:     tbl,
		SQL:       "SELECT avg(v), g FROM t GROUP BY g",
		Outliers:  []string{"a"},
		Direction: TooHigh,
	})
	if err == nil {
		t.Fatal("expected error for empty table (no groups)")
	}
}

func TestExplainInfValues(t *testing.T) {
	schema, _ := NewSchema(
		Column{Name: "g", Kind: Discrete},
		Column{Name: "a", Kind: Continuous},
		Column{Name: "v", Kind: Continuous},
	)
	b := NewBuilder(schema)
	for i := 0; i < 30; i++ {
		v := 10.0
		if i == 20 {
			v = math.Inf(1)
		}
		if i > 20 {
			v = 90
		}
		b.MustAppend(Row{S([]string{"h", "o"}[i/15]), F(float64(i % 15)), F(v)})
	}
	res, err := Explain(&Request{
		Table:            b.Build(),
		SQL:              "SELECT avg(v), g FROM t GROUP BY g",
		Outliers:         []string{"o"},
		AllOthersHoldOut: true,
		Direction:        TooHigh,
	})
	if err != nil {
		t.Fatalf("Inf data: %v", err)
	}
	for _, e := range res.Explanations {
		if math.IsNaN(e.Influence) {
			t.Fatalf("NaN influence with Inf input")
		}
	}
}

// --- append-path failure injection --------------------------------------
// The streaming surface must fail as cleanly as the static one: malformed
// batches, NaN/Inf values arriving mid-stream, appends to unknown tables,
// and appends racing unloads produce errors (or finite results), never
// panics. The HTTP layer's 4xx mapping for the same cases lives in
// internal/server/append_test.go.

func TestAppendNaNInfRowsExplainStaysFinite(t *testing.T) {
	schema, _ := NewSchema(
		Column{Name: "g", Kind: Discrete},
		Column{Name: "a", Kind: Continuous},
		Column{Name: "v", Kind: Continuous},
	)
	b := NewBuilder(schema)
	for i := 0; i < 40; i++ {
		v := 10.0
		if i >= 20 && i%3 == 0 {
			v = 100
		}
		b.MustAppend(Row{S([]string{"hold", "out"}[i/20]), F(float64(i % 10)), F(v)})
	}
	base := b.Build()
	// The appended batch smuggles NaN and ±Inf aggregate values in.
	app := AppenderFor(base)
	tbl, err := app.Append([]Row{
		{S("out"), F(3), F(math.NaN())},
		{S("out"), F(4), F(math.Inf(1))},
		{S("hold"), F(5), F(math.Inf(-1))},
	})
	if err != nil {
		t.Fatalf("NaN/Inf rows are legal values; append failed: %v", err)
	}
	res, err := Explain(&Request{
		Table:            tbl,
		SQL:              "SELECT avg(v), g FROM t GROUP BY g",
		Outliers:         []string{"out"},
		AllOthersHoldOut: true,
		Direction:        TooHigh,
	})
	if err != nil {
		t.Fatalf("explain after NaN/Inf append: %v", err)
	}
	for _, e := range res.Explanations {
		if math.IsNaN(e.Influence) || math.IsInf(e.Influence, 0) {
			t.Fatalf("explanation %q has non-finite influence %v", e.Where, e.Influence)
		}
	}
}

func TestAppendSchemaMismatchedBatch(t *testing.T) {
	schema, _ := NewSchema(
		Column{Name: "g", Kind: Discrete},
		Column{Name: "v", Kind: Continuous},
	)
	b := NewBuilder(schema)
	b.MustAppend(Row{S("a"), F(1)})
	app := AppenderFor(b.Build())
	// Wrong arity, wrong kind, and a CSV batch naming an unknown column:
	// all clean errors, nothing partially applied.
	if _, err := app.Append([]Row{{S("a")}}); err == nil {
		t.Error("short row accepted")
	}
	if _, err := app.Append([]Row{{F(1), F(2)}}); err == nil {
		t.Error("kind-swapped row accepted")
	}
	if _, err := ParseCSVRows(strings.NewReader("g,w\na,1\n"), schema, CSVOptions{}); err == nil {
		t.Error("unknown-column batch accepted")
	}
	if got := app.NumRows(); got != 1 {
		t.Fatalf("failed batches mutated the table: %d rows", got)
	}
}

func TestAppendUnknownTable(t *testing.T) {
	cat := catalog.New()
	if _, err := cat.Append("ghost", []Row{{S("a")}}); err == nil {
		t.Fatal("append to unknown table succeeded")
	}
	if _, _, err := cat.AppendCSV("ghost", strings.NewReader("g\na\n")); err == nil {
		t.Fatal("csv append to unknown table succeeded")
	}
}

func TestAppendRacingUnload(t *testing.T) {
	// Appends racing Remove/re-Add on the same catalog name must never
	// panic; each append either lands on the live lineage or errors.
	cat := catalog.New()
	load := func() {
		schema, _ := NewSchema(
			Column{Name: "g", Kind: Discrete},
			Column{Name: "v", Kind: Continuous},
		)
		b := NewBuilder(schema)
		b.MustAppend(Row{S("a"), F(1)})
		if _, err := cat.Add("t", b.Build(), "test"); err != nil {
			t.Error(err)
		}
	}
	load()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 60; j++ {
				_, _ = cat.Append("t", []Row{{S("b"), F(2)}})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 30; j++ {
			cat.Remove("t")
			load()
		}
	}()
	wg.Wait()
	if e, ok := cat.Get("t"); ok {
		if _, err := cat.Append("t", []Row{{S("c"), F(3)}}); err != nil {
			t.Fatalf("surviving entry %q not appendable: %v", e.Name, err)
		}
	}
}

// TestNaNRankingDeterministicAcrossWorkers: a NaN aggregate value makes
// every predicate that deletes its whole group score NaN (SUM's empty
// value minus a NaN sum). NaN fails both a > b and b > a, so unless the
// comparators rank it last, the order of such candidates — and so the
// parallel top-k — follows the order batches arrive in. Every worker
// count must return the serial ranking, bit for bit.
func TestNaNRankingDeterministicAcrossWorkers(t *testing.T) {
	schema, err := NewSchema(
		Column{Name: "g", Kind: Discrete},
		Column{Name: "a", Kind: Continuous},
		Column{Name: "b", Kind: Discrete},
		Column{Name: "v", Kind: Continuous},
	)
	if err != nil {
		t.Fatal(err)
	}
	bld := NewBuilder(schema)
	for _, g := range []string{"hold1", "hold2", "out"} {
		for i := 0; i < 60; i++ {
			v := 10.0
			if g == "out" && i%10 >= 6 {
				v = 100
			}
			if g == "out" && i == 7 {
				v = math.NaN()
			}
			b := []string{"w", "x", "y"}[i%3]
			if g == "out" {
				b = "w" // every b clause holding w deletes the whole group
			}
			bld.MustAppend(Row{S(g), F(float64(i % 10)), S(b), F(v)})
		}
	}
	tbl := bld.Build()
	for _, algo := range []Algorithm{Naive, MC, DT} {
		t.Run(algo.String(), func(t *testing.T) {
			req := &Request{
				Table:            tbl,
				SQL:              "SELECT sum(v), g FROM t GROUP BY g",
				Outliers:         []string{"out"},
				AllOthersHoldOut: true,
				Algorithm:        algo,
				Shards:           1,
				// NAIVE retains the request's top-k, so every candidate,
				// NaN ones included, reaches the final ranking.
				TopK: 200,
			}
			serial, err := Explain(req)
			if err != nil {
				t.Fatal(err)
			}
			if len(serial.Explanations) == 0 {
				t.Fatal("serial run found nothing")
			}
			for _, workers := range []int{2, 4} {
				for round := 0; round < 5; round++ {
					r := *req
					r.Workers = workers
					par, err := Explain(&r)
					if err != nil {
						t.Fatal(err)
					}
					if len(par.Explanations) != len(serial.Explanations) {
						t.Fatalf("workers %d: %d explanations, serial %d", workers, len(par.Explanations), len(serial.Explanations))
					}
					for i, s := range serial.Explanations {
						p := par.Explanations[i]
						if s.Where != p.Where || math.Float64bits(s.Influence) != math.Float64bits(p.Influence) {
							t.Fatalf("workers %d round %d rank %d: %q %v, serial %q %v",
								workers, round, i, p.Where, p.Influence, s.Where, s.Influence)
						}
					}
				}
			}
		})
	}
}
