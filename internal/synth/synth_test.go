package synth

import (
	"math"
	"testing"

	"github.com/scorpiondb/scorpion/internal/relation"
)

func TestGenerateShape(t *testing.T) {
	ds := Easy(2, 400, 1)
	if got := ds.Table.NumRows(); got != 4000 {
		t.Fatalf("rows = %d, want 4000", got)
	}
	if ds.Table.Schema().NumColumns() != 4 { // g, v, a1, a2
		t.Fatalf("columns = %d, want 4", ds.Table.Schema().NumColumns())
	}
	if len(ds.OutlierKeys) != 5 || len(ds.HoldOutKeys) != 5 {
		t.Fatalf("keys = %d/%d, want 5/5", len(ds.OutlierKeys), len(ds.HoldOutKeys))
	}
	names := ds.DimNames()
	if len(names) != 2 || names[0] != "a1" || names[1] != "a2" {
		t.Fatalf("DimNames = %v", names)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Easy(3, 100, 42)
	b := Easy(3, 100, 42)
	if a.Table.NumRows() != b.Table.NumRows() {
		t.Fatal("row counts differ")
	}
	for c := 0; c < a.Table.Schema().NumColumns(); c++ {
		for r := 0; r < a.Table.NumRows(); r += 97 {
			if a.Table.Value(c, r).String() != b.Table.Value(c, r).String() {
				t.Fatalf("cell (%d,%d) differs between same-seed runs", c, r)
			}
		}
	}
	if !a.OuterRows.Equal(b.OuterRows) || !a.InnerRows.Equal(b.InnerRows) {
		t.Fatal("ground truth differs between same-seed runs")
	}
}

func TestGroundTruthFractions(t *testing.T) {
	ds := Easy(2, 2000, 7)
	perGroup := ds.Config.TuplesPerGroup
	nOutlierGroups := len(ds.OutlierKeys)
	outerN := ds.OuterRows.Count()
	innerN := ds.InnerRows.Count()
	wantOuter := float64(perGroup*nOutlierGroups) * 0.25
	wantInner := wantOuter * 0.25
	if math.Abs(float64(outerN)-wantOuter) > wantOuter*0.15 {
		t.Errorf("outer rows = %d, want ≈ %v", outerN, wantOuter)
	}
	if math.Abs(float64(innerN)-wantInner) > wantInner*0.3 {
		t.Errorf("inner rows = %d, want ≈ %v", innerN, wantInner)
	}
	if !ds.InnerRows.Intersect(ds.OuterRows).Equal(ds.InnerRows) {
		t.Error("inner rows must be a subset of outer rows")
	}
}

func TestGroundTruthGeometry(t *testing.T) {
	ds := Hard(3, 500, 11)
	// Every inner row's point must lie in the inner cube; outer rows in the
	// outer cube.
	dims := make([]int, ds.Config.Dims)
	for i := range dims {
		dims[i] = ds.Table.Schema().MustIndex(DimName(i))
	}
	pt := make([]float64, len(dims))
	check := func(rows *relation.RowSet, cube Cube, label string) {
		rows.ForEach(func(r int) {
			for i, c := range dims {
				pt[i] = ds.Table.Float(c, r)
			}
			if !cube.Contains(pt) {
				t.Fatalf("%s row %d at %v outside its cube [%v,%v]", label, r, pt, cube.Lo, cube.Hi)
			}
		})
	}
	check(ds.OuterRows, ds.Outer, "outer")
	check(ds.InnerRows, ds.Inner, "inner")
	// Inner cube nested in outer.
	for d := 0; d < ds.Config.Dims; d++ {
		if ds.Inner.Lo[d] < ds.Outer.Lo[d] || ds.Inner.Hi[d] > ds.Outer.Hi[d] {
			t.Fatalf("inner cube not nested in outer on dim %d", d)
		}
	}
}

func TestValueDistributions(t *testing.T) {
	ds := Easy(2, 2000, 3)
	vCol := ds.Table.Schema().MustIndex("v")
	var innerSum, outerShellSum float64
	var innerN, outerShellN int
	ds.OuterRows.ForEach(func(r int) {
		if ds.InnerRows.Contains(r) {
			innerSum += ds.Table.Float(vCol, r)
			innerN++
		} else {
			outerShellSum += ds.Table.Float(vCol, r)
			outerShellN++
		}
	})
	innerMean := innerSum / float64(innerN)
	shellMean := outerShellSum / float64(outerShellN)
	if math.Abs(innerMean-80) > 5 {
		t.Errorf("inner mean = %v, want ≈ 80", innerMean)
	}
	if math.Abs(shellMean-45) > 5 {
		t.Errorf("outer-shell mean = %v, want ≈ 45", shellMean)
	}
	// Hold-out groups are purely normal.
	gCol := ds.Table.Schema().MustIndex("g")
	var normSum float64
	var normN int
	holdKeys := map[string]bool{}
	for _, k := range ds.HoldOutKeys {
		holdKeys[k] = true
	}
	for r := 0; r < ds.Table.NumRows(); r++ {
		if holdKeys[ds.Table.Str(gCol, r)] {
			normSum += ds.Table.Float(vCol, r)
			normN++
		}
	}
	if m := normSum / float64(normN); math.Abs(m-10) > 2 {
		t.Errorf("hold-out mean = %v, want ≈ 10", m)
	}
}

func TestHoldOutGroupsHaveNoTruthRows(t *testing.T) {
	ds := Easy(2, 300, 5)
	gCol := ds.Table.Schema().MustIndex("g")
	holdKeys := map[string]bool{}
	for _, k := range ds.HoldOutKeys {
		holdKeys[k] = true
	}
	ds.OuterRows.ForEach(func(r int) {
		if holdKeys[ds.Table.Str(gCol, r)] {
			t.Fatalf("ground-truth row %d belongs to hold-out group %s", r, ds.Table.Str(gCol, r))
		}
	})
}

func TestConfigDefaults(t *testing.T) {
	ds := Generate(Config{Seed: 9})
	cfg := ds.Config
	if cfg.Dims != 2 || cfg.TuplesPerGroup != 2000 || cfg.Groups != 10 ||
		cfg.OutlierGroups != 5 || cfg.Mu != 80 {
		t.Errorf("defaults = %+v", cfg)
	}
}
