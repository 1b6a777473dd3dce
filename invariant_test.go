package scorpion

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/scorpiondb/scorpion/internal/synth"
)

// invariantPermutations is how many row orders TestAnswersInvariant tries.
const invariantPermutations = 12

// dtRowOrderLedger records, per DT cell of TestAnswersInvariant, the lowest
// ratio, over the 12 row orders, of DT's top influence to its top influence
// on the table as generated, rounded down to two places. DT samples a node's
// rows by their position, so its answer depends on storage order (Finding
// 11). A cell may not fall below its ratio, and a cell whose top predicate
// no row order moves must leave the ledger.
var dtRowOrderLedger = map[string]float64{
	"Easy/sum/c=0/dt":   0.34,
	"Easy/sum/c=0.5/dt": 0.54,
	"Easy/avg/c=0/dt":   0.33,
	"Easy/avg/c=0.5/dt": 0.47,
	"Hard/sum/c=0/dt":   1.29,
	"Hard/sum/c=0.5/dt": 1.07,
	"Hard/avg/c=0/dt":   0.57,
	"Hard/avg/c=0.5/dt": 0.36,
}

// dtAttrOrderLedger lists the DT cells of TestAnswersInvariant whose answer
// changes below its top predicate when the attribute list is reversed: DT
// splits on the attributes in list order, and so do its ties. A cell whose
// answer stops changing must leave the ledger.
var dtAttrOrderLedger = map[string]bool{
	"Easy/avg/c=0/dt":   true,
	"Easy/avg/c=0.5/dt": true,
}

// transformRows rebuilds tbl with fn applied to a copy of each row.
func transformRows(t *testing.T, tbl *Table, fn func(Row)) *Table {
	t.Helper()
	b := NewBuilder(tbl.Schema())
	for r := 0; r < tbl.NumRows(); r++ {
		row := slices.Clone(tbl.Row(r))
		fn(row)
		b.MustAppend(row)
	}
	return b.Build()
}

// permuteRows rebuilds tbl with its rows in the order perm gives.
func permuteRows(t *testing.T, tbl *Table, perm []int) *Table {
	t.Helper()
	b := NewBuilder(tbl.Schema())
	for _, r := range perm {
		b.MustAppend(tbl.Row(r))
	}
	return b.Build()
}

// TestAnswersInvariant is a metamorphic suite over NAIVE, DT and MC (MC on
// SUM only), on quick 2-D SYNTH Easy and Hard, SUM and AVG, c ∈ {0, 0.5}.
// Against the answer on the table as generated:
//   - with every v doubled, every top influence doubles exactly, on the
//     same predicates: doubling is exact, and so is every sum and scaling
//     of doubled values;
//   - with every attribute doubled, or shifted by 1e6, the top influence
//     keeps its bits;
//   - with the attribute list reversed, the answer is the same (DT's
//     departures below the top predicate are on dtAttrOrderLedger);
//   - with the rows stored in any of 12 random orders, the top predicate is
//     the same, its influence within 1e-12 relative (the fold order
//     follows the rows). DT's departures are on dtRowOrderLedger, which
//     pins how far its top influence falls.
func TestAnswersInvariant(t *testing.T) {
	type answer struct {
		where []string
		infl  []float64
	}
	explain := func(tbl *Table, ds *synth.Dataset, agg string, c float64, algo Algorithm, attrs []string) answer {
		t.Helper()
		req := &Request{Table: tbl, SQL: fmt.Sprintf("SELECT %s(v), g FROM synth GROUP BY g", agg),
			Outliers: ds.OutlierKeys, AllOthersHoldOut: true, Direction: TooHigh,
			Attributes: attrs, Algorithm: algo, Bins: 10, Workers: 1}
		req.SetC(c)
		res, err := Explain(req)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Explanations) == 0 {
			t.Fatalf("%v %s c=%v: no explanations", algo, agg, c)
		}
		var a answer
		for _, e := range res.Explanations {
			a.where = append(a.where, e.Where)
			a.infl = append(a.infl, e.Influence)
		}
		return a
	}
	seenLedger := map[string]bool{}
	for _, diff := range []struct {
		name string
		mu   float64
	}{{"Easy", 80}, {"Hard", 30}} {
		ds := synth.Generate(synth.Config{Dims: 2, TuplesPerGroup: 250, Groups: 6, OutlierGroups: 3, Mu: diff.mu, Seed: 1})
		schema := ds.Table.Schema()
		vCol := schema.MustIndex("v")
		var dimCols []int
		for _, name := range ds.DimNames() {
			dimCols = append(dimCols, schema.MustIndex(name))
		}
		dims := func(fn func(float64) float64) func(Row) {
			return func(row Row) {
				for _, col := range dimCols {
					row[col] = F(fn(row[col].Float()))
				}
			}
		}
		doubledV := transformRows(t, ds.Table, func(row Row) { row[vCol] = F(2 * row[vCol].Float()) })
		doubledA := transformRows(t, ds.Table, dims(func(a float64) float64 { return 2 * a }))
		shiftedA := transformRows(t, ds.Table, dims(func(a float64) float64 { return a + 1e6 }))
		rng := rand.New(rand.NewSource(1))
		var permuted []*Table
		for range invariantPermutations {
			permuted = append(permuted, permuteRows(t, ds.Table, rng.Perm(ds.Table.NumRows())))
		}
		attrs := ds.DimNames()
		reversed := slices.Clone(attrs)
		slices.Reverse(reversed)
		for _, agg := range []string{"sum", "avg"} {
			for _, c := range []float64{0, 0.5} {
				for _, algo := range []Algorithm{Naive, DT, MC} {
					if algo == MC && agg != "sum" {
						continue
					}
					cell := fmt.Sprintf("%s/%s/c=%v/%v", diff.name, agg, c, algo)
					base := explain(ds.Table, ds, agg, c, algo, attrs)

					got := explain(doubledV, ds, agg, c, algo, attrs)
					if !slices.Equal(got.where, base.where) || len(got.infl) != len(base.infl) {
						t.Errorf("%s: v × 2 serves %v, want %v", cell, got.where, base.where)
					} else {
						for i := range got.infl {
							if math.Float64bits(got.infl[i]) != math.Float64bits(2*base.infl[i]) {
								t.Errorf("%s: v × 2 scores %s at %v, want 2 × %v", cell, got.where[i], got.infl[i], base.infl[i])
							}
						}
					}
					for _, tr := range []struct {
						what string
						tbl  *Table
					}{{"a × 2", doubledA}, {"a + 1e6", shiftedA}} {
						if got := explain(tr.tbl, ds, agg, c, algo, attrs); math.Float64bits(got.infl[0]) != math.Float64bits(base.infl[0]) {
							t.Errorf("%s: %s tops at %v (%s), want %v (%s)", cell, tr.what, got.infl[0], got.where[0], base.infl[0], base.where[0])
						}
					}
					got = explain(ds.Table, ds, agg, c, algo, reversed)
					same := slices.Equal(got.where, base.where) && slices.EqualFunc(got.infl, base.infl, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
					switch {
					case !same && got.where[0] != base.where[0]:
						t.Errorf("%s: the reversed attribute list tops at %s, want %s", cell, got.where[0], base.where[0])
					case !same && !dtAttrOrderLedger[cell]:
						t.Errorf("%s: the reversed attribute list serves %v %v, want %v %v", cell, got.where, got.infl, base.where, base.infl)
					case same && dtAttrOrderLedger[cell]:
						t.Errorf("%s: the reversed attribute list serves the same answer: remove it from the attribute-order ledger", cell)
					}

					moved, lowest := 0, math.Inf(1)
					for k, tbl := range permuted {
						got := explain(tbl, ds, agg, c, algo, attrs)
						lowest = min(lowest, got.infl[0]/base.infl[0])
						if got.where[0] != base.where[0] {
							if algo != DT {
								t.Errorf("%s: row order %d tops at %s, want %s", cell, k+1, got.where[0], base.where[0])
							}
							moved++
						} else if d := math.Abs(got.infl[0] - base.infl[0]); algo != DT && !(d <= 1e-12*math.Abs(base.infl[0])) {
							t.Errorf("%s: row order %d scores the top predicate %v, want %v within 1e-12", cell, k+1, got.infl[0], base.infl[0])
						}
					}
					if algo != DT {
						continue
					}
					recorded, ok := dtRowOrderLedger[cell]
					seenLedger[cell] = ok
					t.Logf("%s: %d of %d row orders move DT's top predicate; the lowest top influence is %.4f of the unpermuted", cell, moved, len(permuted), lowest)
					switch {
					case ok && moved == 0:
						t.Errorf("%s: no row order moves DT's top predicate: remove it from the row-order ledger", cell)
					case moved > 0 && !ok:
						t.Errorf("%s: %d row orders move DT's top predicate, and the row-order ledger has no ratio for it", cell, moved)
					case math.Floor(lowest*100)/100 < recorded:
						t.Errorf("%s: a row order tops DT at %.4f of the unpermuted top influence, below its ledger ratio %.2f", cell, lowest, recorded)
					}
				}
			}
		}
	}
	var stale []string
	for cell := range dtRowOrderLedger {
		if !seenLedger[cell] {
			stale = append(stale, cell)
		}
	}
	if len(stale) > 0 {
		t.Errorf("row-order ledger cells no run covers: %s", strings.Join(stale, ", "))
	}
}
