// Knob: the §7 c parameter explored interactively with a Session. On a
// synthetic dataset with planted nested cubes, sweeping c from 1 to 0 walks
// the returned predicate from the tight inner cube out to the full outer
// cube — and the Session reuses the DT partitioning and prior merge results
// so each step after the first is much cheaper (the paper's §8.3.3 caching
// experiment).
package main

import (
	"context"
	"fmt"
	"log"

	scorpion "github.com/scorpiondb/scorpion"
	"github.com/scorpiondb/scorpion/datagen"
)

func main() {
	ds := datagen.Synth(datagen.SynthConfig{
		Dims:           2,
		TuplesPerGroup: 1000,
		Mu:             80,
		Seed:           7,
	})
	fmt.Printf("planted outer cube: a1 ∈ [%.1f, %.1f], a2 ∈ [%.1f, %.1f]\n",
		ds.Outer.Lo[0], ds.Outer.Hi[0], ds.Outer.Lo[1], ds.Outer.Hi[1])
	fmt.Printf("planted inner cube: a1 ∈ [%.1f, %.1f], a2 ∈ [%.1f, %.1f]\n\n",
		ds.Inner.Lo[0], ds.Inner.Hi[0], ds.Inner.Lo[1], ds.Inner.Hi[1])

	base := scorpion.Request{
		Table:            ds.Table,
		SQL:              "SELECT avg(v), g FROM synth GROUP BY g",
		Outliers:         ds.OutlierKeys,
		AllOthersHoldOut: true,
		Direction:        scorpion.TooHigh,
		Attributes:       ds.DimNames(),
		Algorithm:        scorpion.DT,
		TopK:             1,
	}
	session := scorpion.NewSession(&base)

	fmt.Println("sweeping the c knob (one Session):")
	for _, c := range []float64{1.0, 0.5, 0.2, 0.1, 0.0} {
		// SetC (not a field write) so the sweep's final c=0 step is an
		// explicit zero rather than the default.
		req := base
		req.SetC(c)
		res, err := session.Explain(context.Background(), &req, 1)
		if err != nil {
			log.Fatal(err)
		}
		top := res.Explanations[0]
		fmt.Printf("  c=%.1f  (%8s)  matches %5d tuples  WHERE %s\n",
			c, res.Stats.Duration.Round(1e5), top.MatchedOutlierTuples, top.Where)
	}

	fmt.Println("\nsame sweep without caching (fresh Explain each time):")
	for _, c := range []float64{1.0, 0.5, 0.2, 0.1, 0.0} {
		req := base
		req.SetC(c)
		res, err := scorpion.Explain(&req)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  c=%.1f  (%8s)  WHERE %s\n",
			c, res.Stats.Duration.Round(1e5), res.Explanations[0].Where)
	}
}
