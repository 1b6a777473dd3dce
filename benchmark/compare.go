package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one end-to-end metric of one workload. worse is how far the
// new median moved in the bad direction, as a share of the old one.
//
//   - ok: the move is within the bound and so are both spreads, or every new
//     round reads better than every old one;
//   - unresolved: a spread is wider than the bound and the two ranges
//     overlap, so the runs cannot tell;
//   - regressed: otherwise, when the move exceeds the bound or every new
//     round reads worse than every old one.
func verdict(spec metricSpec, old, cur metricValue) (worse float64, v string) {
	sign := 1.0
	if spec.Better == "higher" {
		sign = -1
	}
	worse = sign * ratio(cur.Value-old.Value, old.Value)
	wide := ratio(old.Hi-old.Lo, old.Value) > spec.Bound || ratio(cur.Hi-cur.Lo, cur.Value) > spec.Bound
	allBetter := sign*(cur.Hi-old.Lo) < 0 && sign*(cur.Lo-old.Hi) < 0
	allWorse := sign*(cur.Lo-old.Hi) > 0 && sign*(cur.Hi-old.Lo) > 0
	switch {
	case allBetter:
		return worse, "ok"
	case wide && !allWorse:
		return worse, "unresolved"
	case worse > spec.Bound || (wide && allWorse):
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints one line per workload and end-to-end metric and
// returns 1 when any regressed.
func compareFiles(sp *spec, oldPath, newPath string) int {
	old, err := readResults(oldPath)
	if err != nil {
		logf("benchmark: %v", err)
		return 2
	}
	cur, err := readResults(newPath)
	if err != nil {
		logf("benchmark: %v", err)
		return 2
	}
	return compareResults(sp, old, cur)
}

func compareResults(sp *spec, old, cur *results) int {
	fmt.Printf("old: git %s seed %d   new: git %s seed %d\n", old.Meta.GitSHA, old.Meta.Seed, cur.Meta.GitSHA, cur.Meta.Seed)
	fmt.Printf("%-15s %-16s %12s %22s %12s %22s %8s %6s  %s\n", "workload", "metric", "old", "old rounds", "new", "new rounds", "worse", "bound", "verdict")
	regressed := 0
	for _, name := range sp.workloadNames() {
		o, c := old.Workloads[name], cur.Workloads[name]
		if o == nil || c == nil || o.EndToEnd == nil || c.EndToEnd == nil {
			continue
		}
		for _, spec := range sp.EndToEnd {
			ov, cv := o.EndToEnd[spec.Name], c.EndToEnd[spec.Name]
			worse, v := verdict(spec, ov, cv)
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("%-15s %-16s %12.4f [%9.4f..%9.4f] %12.4f [%9.4f..%9.4f] %+7.1f%% %5.0f%%  %s\n",
				name, spec.Name, ov.Value, ov.Lo, ov.Hi, cv.Value, cv.Lo, cv.Hi, 100*worse, 100*spec.Bound, v)
		}
		if c.Failed > o.Failed {
			fmt.Printf("%-15s %-16s %12d %22s %12d %22s %8s %6s  regressed\n", name, "failed ops", o.Failed, "", c.Failed, "", "", "")
			regressed++
		}
	}
	if regressed > 0 {
		return 1
	}
	return 0
}
