package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// naiveFloor is the share of NAIVE's top influence that DT's and MC's top
// influence must reach on a quick SYNTH cell.
const naiveFloor = 0.8

// dtNaiveLedger names the cells where DT is known to fall short of
// naiveFloor, each with the DT/NAIVE ratio measured when it was entered,
// rounded down to two places. DT's greedy merge stops at its own split
// points and misses NAIVE's wider box, most often on 2-D Hard and under
// AVG. A ledger cell may not fall further below its ratio, and one that
// reaches the floor must leave the ledger.
var dtNaiveLedger = map[string]float64{
	"seed=1/2-D/Hard/avg/c=0":   0.26,
	"seed=1/2-D/Hard/avg/c=0.2": 0.36,
	"seed=1/2-D/Hard/avg/c=0.4": 0.53,
	"seed=1/2-D/Hard/avg/c=0.5": 0.59,
	"seed=1/2-D/Hard/c=0":       0.26,
	"seed=1/2-D/Hard/c=0.2":     0.29,
	"seed=1/2-D/Hard/c=0.4":     0.27,
	"seed=1/2-D/Hard/c=0.5":     0.45,
	"seed=2/2-D/Hard/c=0.4":     0.69,
	"seed=2/2-D/Hard/c=0.5":     0.74,
	"seed=3/2-D/Hard/avg/c=0":   0.77,
	"seed=3/2-D/Hard/avg/c=0.2": 0.78,
	"seed=3/2-D/Hard/avg/c=0.4": 0.67,
	"seed=3/2-D/Hard/avg/c=0.5": 0.61,
	"seed=3/3-D/Hard/c=0.4":     0.77,
	"seed=3/3-D/Hard/c=0.5":     0.66,
	"seed=4/2-D/Easy/avg/c=0":   0.32,
	"seed=4/2-D/Easy/avg/c=0.2": 0.41,
	"seed=4/2-D/Easy/avg/c=0.4": 0.50,
	"seed=4/2-D/Easy/avg/c=0.5": 0.54,
	"seed=4/2-D/Easy/c=0":       0.67,
	"seed=4/2-D/Easy/c=0.2":     0.75,
	"seed=4/2-D/Hard/avg/c=0":   0.73,
	"seed=4/2-D/Hard/avg/c=0.2": 0.79,
	"seed=4/2-D/Hard/avg/c=0.5": 0.79,
	"seed=4/2-D/Hard/c=0.4":     0.76,
	"seed=4/2-D/Hard/c=0.5":     0.63,
	"seed=4/3-D/Easy/c=0":       0.69,
	"seed=4/3-D/Easy/c=0.2":     0.79,
	"seed=4/3-D/Hard/c=0":       0.64,
	"seed=4/3-D/Hard/c=0.2":     0.69,
	"seed=1/4-D/Hard/c=0":       0.72,
	"seed=1/4-D/Hard/c=0.5":     0.70,
}

// mcNaiveLedger is dtNaiveLedger for MC, all on 3-D. MC's §6.2 prune
// hands the Merger only part of each generation's units (see the prune
// ledger in internal/partition/mc).
var mcNaiveLedger = map[string]float64{
	"seed=2/3-D/Easy/c=0.4": 0.72,
	"seed=2/3-D/Hard/c=0.2": 0.76,
	"seed=3/3-D/Easy/c=0":   0.76,
	"seed=4/3-D/Easy/c=0.4": 0.76,
}

// TestDTReachesNaive holds DT's top influence to NAIVE's on the quick
// SYNTH cells of seeds 1–4: 2-D and 3-D, Easy and Hard, under SUM, and 2-D
// Easy and Hard under AVG, at c ∈ {0, 0.2, 0.4, 0.5}; and at seed 1 on 4-D
// Easy and Hard under SUM at c ∈ {0, 0.5}.
func TestDTReachesNaive(t *testing.T) {
	reachesNaive(t, "dt", []string{"sum", "avg"}, dtNaiveLedger)
}

// TestMCReachesNaive holds MC's top influence to NAIVE's on the SUM cells
// of TestDTReachesNaive.
func TestMCReachesNaive(t *testing.T) {
	reachesNaive(t, "mc", []string{"sum"}, mcNaiveLedger)
}

// reachesNaive compares algo's top influence with NAIVE's, cell by cell,
// against naiveFloor and ledger; an AVG cell is 2-D only, and a 4-D cell
// is seed 1's, under SUM, at c = 0 or 0.5, with NAIVE given 10 s (a quick
// 4-D NAIVE run takes up to ~1.4 s alone, too near the quick 2 s deadline
// on a loaded host for a yardstick). NAIVE is
// exhaustive over its grid, so a NAIVE run that finishes inside its
// deadline is the yardstick; one its deadline interrupts fails the cell
// instead of being compared against a cut-short search.
func reachesNaive(t *testing.T, algo string, aggs []string, ledger map[string]float64) {
	name := strings.ToUpper(algo)
	for seed := int64(1); seed <= 4; seed++ {
		s := QuickScale()
		s.Seed = seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, dims := range []int{2, 3, 4} {
				if dims == 4 && seed != 1 {
					continue
				}
				s := s
				if dims == 4 {
					s.NaiveDeadline = 10 * time.Second
				}
				for _, difficulty := range []string{"Easy", "Hard"} {
					ds := s.synthDataset(dims, mu(difficulty))
					for _, agg := range aggs {
						if agg != "sum" && dims != 2 {
							continue
						}
						for _, c := range []float64{0, 0.2, 0.4, 0.5} {
							if dims == 4 && c != 0 && c != 0.5 {
								continue
							}
							cell := fmt.Sprintf("%d-D/%s/c=%v", dims, difficulty, c)
							if agg != "sum" {
								cell = fmt.Sprintf("%d-D/%s/%s/c=%v", dims, difficulty, agg, c)
							}
							t.Run(cell, func(t *testing.T) {
								nv, err := s.runAggregate("naive", agg, ds, c)
								if err != nil {
									t.Fatal(err)
								}
								if nv.Interrupted {
									t.Fatalf("NAIVE was interrupted by its %v deadline: its answer is not the grid's optimum", s.NaiveDeadline)
								}
								if !(nv.Score > 0) {
									t.Fatalf("NAIVE's top influence %v is not positive: %s/NAIVE is undefined", nv.Score, name)
								}
								got, err := s.runAggregate(algo, agg, ds, c)
								if err != nil {
									t.Fatal(err)
								}
								ratio := got.Score / nv.Score
								t.Logf("%s %.4g / NAIVE %.4g = %.2f", name, got.Score, nv.Score, ratio)
								// The ledger ratios are rounded to two places.
								const rounding = 0.01
								switch recorded, ok := ledger[fmt.Sprintf("seed=%d/%s", seed, cell)]; {
								case ok && ratio >= naiveFloor:
									t.Errorf("%s reaches %.2f of NAIVE, above the %.1f floor: remove it from the ledger", name, ratio, naiveFloor)
								case ok && ratio < recorded-rounding:
									t.Errorf("%s reaches %.2f of NAIVE, below its ledger ratio %.2f", name, ratio, recorded)
								case !ok && !(ratio >= naiveFloor):
									t.Errorf("%s reaches %.2f of NAIVE (%v vs %v), below the %.1f floor", name, ratio, got.Score, nv.Score, naiveFloor)
								}
							})
						}
					}
				}
			}
		})
	}
}
