package stream

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/relation"
)

func schema() *relation.Schema {
	return relation.MustSchema(
		relation.Column{Name: "g", Kind: relation.Discrete},
		relation.Column{Name: "a", Kind: relation.Continuous},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
}

func row(g string, a, v float64) relation.Row {
	return relation.Row{relation.S(g), relation.F(a), relation.F(v)}
}

func baseRows() []relation.Row {
	var rows []relation.Row
	for i := 0; i < 30; i++ {
		rows = append(rows, row([]string{"x", "y", "z"}[i%3], float64(i%10), float64(10+i%7)))
	}
	return rows
}

const sql = "SELECT sum(v), g FROM t GROUP BY g"

func buildTable(t *testing.T, rows []relation.Row) *relation.Table {
	t.Helper()
	b := relation.NewBuilder(schema())
	for _, r := range rows {
		b.MustAppend(r)
	}
	return b.Build()
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTrackerAdvanceMatchesColdTracker(t *testing.T) {
	base := buildTable(t, baseRows())
	tr, err := NewTracker(base, sql)
	if err != nil {
		t.Fatal(err)
	}
	app := relation.AppenderFor(base)
	batches := [][]relation.Row{
		{row("x", 1, 99), row("w", 2, 5)}, // touches x, creates w
		{row("y", 3, 7), row("y", 4, 8)},  // touches y twice
		{row("w", 5, 1), row("z", 6, 2), row("x", 7, 3)},
	}
	for i, batch := range batches {
		succ, err := app.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := tr.Advance(succ)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if delta.TailRows != len(batch) {
			t.Fatalf("batch %d: tail rows %d, want %d", i, delta.TailRows, len(batch))
		}
	}
	final := app.Snapshot()

	// The incrementally advanced tracker must agree with a cold tracker
	// built on the final snapshot: same groups, same provenance, same
	// recovered values.
	cold, err := NewTracker(final, sql)
	if err != nil {
		t.Fatal(err)
	}
	warmKeys, coldKeys := tr.Keys(), cold.Keys()
	if len(warmKeys) != len(coldKeys) {
		t.Fatalf("keys %v != %v", warmKeys, coldKeys)
	}
	for i := range warmKeys {
		if warmKeys[i] != coldKeys[i] {
			t.Fatalf("keys %v != %v", warmKeys, coldKeys)
		}
		w, _ := tr.Group(warmKeys[i])
		c, _ := cold.Group(coldKeys[i])
		if !w.Rows.Equal(c.Rows) {
			t.Fatalf("group %q provenance %v != %v", warmKeys[i], w.Rows, c.Rows)
		}
		if !almostEqual(w.Value(tr.Removable()), c.Value(cold.Removable())) {
			t.Fatalf("group %q value %v != %v", warmKeys[i],
				w.Value(tr.Removable()), c.Value(cold.Removable()))
		}
	}
	// Result() round-trips through query.NewResult with canonical ordering.
	wres, cres := tr.Result(), cold.Result()
	if len(wres.Rows) != len(cres.Rows) {
		t.Fatalf("result rows %d != %d", len(wres.Rows), len(cres.Rows))
	}
	for i := range wres.Rows {
		if wres.Rows[i].Key != cres.Rows[i].Key || !almostEqual(wres.Rows[i].Value, cres.Rows[i].Value) {
			t.Fatalf("result row %d: %+v != %+v", i, wres.Rows[i], cres.Rows[i])
		}
	}
}

func TestTrackerDeltaReportsTouchedAndNew(t *testing.T) {
	base := buildTable(t, baseRows())
	tr, err := NewTracker(base, sql)
	if err != nil {
		t.Fatal(err)
	}
	app := relation.AppenderFor(base)
	succ, err := app.Append([]relation.Row{row("x", 0, 1), row("new1", 0, 2), row("new1", 0, 3)})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := tr.Advance(succ)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Touched) != 1 || delta.Touched[0] != "x" {
		t.Fatalf("touched = %v", delta.Touched)
	}
	if len(delta.New) != 1 || delta.New[0] != "new1" {
		t.Fatalf("new = %v", delta.New)
	}
	g, ok := tr.Group("new1")
	if !ok || g.Rows.Count() != 2 || !almostEqual(g.Value(tr.Removable()), 5) {
		t.Fatalf("new group state: %+v", g)
	}
	// No-growth advance: empty delta.
	delta, err = tr.Advance(succ)
	if err != nil || len(delta.Touched)+len(delta.New) != 0 || delta.TailRows != 0 {
		t.Fatalf("no-growth delta = %+v err %v", delta, err)
	}
}

func TestTrackerRespectsWhereFilter(t *testing.T) {
	base := buildTable(t, baseRows())
	filtered := "SELECT sum(v), g FROM t WHERE a < 5 GROUP BY g"
	tr, err := NewTracker(base, filtered)
	if err != nil {
		t.Fatal(err)
	}
	app := relation.AppenderFor(base)
	// One row passes the filter, one does not.
	succ, err := app.Append([]relation.Row{row("x", 1, 50), row("x", 9, 50)})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := tr.Advance(succ)
	if err != nil {
		t.Fatal(err)
	}
	if delta.TailRows != 1 {
		t.Fatalf("filtered tail rows = %d, want 1", delta.TailRows)
	}
	cold, err := NewTracker(succ, filtered)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := tr.Group("x")
	c, _ := cold.Group("x")
	if !w.Rows.Equal(c.Rows) || !almostEqual(w.Value(tr.Removable()), c.Value(cold.Removable())) {
		t.Fatalf("filtered advance diverged: %v vs %v", w, c)
	}
}

func TestTrackerErrors(t *testing.T) {
	base := buildTable(t, baseRows())
	// Black-box aggregate: no decomposable state to maintain.
	if _, err := NewTracker(base, "SELECT median(v), g FROM t GROUP BY g"); err == nil {
		t.Fatal("median tracker built")
	}
	tr, err := NewTracker(base, sql)
	if err != nil {
		t.Fatal(err)
	}
	// A shorter table is not a successor.
	short := buildTable(t, baseRows()[:10])
	if _, err := tr.Advance(short); err == nil {
		t.Fatal("shrunk successor accepted")
	}
	// A different schema is not a successor.
	other := relation.NewBuilder(relation.MustSchema(
		relation.Column{Name: "q", Kind: relation.Continuous})).Build()
	if _, err := tr.Advance(other); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if _, err := tr.Advance(nil); err == nil {
		t.Fatal("nil successor accepted")
	}
	// States for a label that is not a group.
	if _, err := tr.States([]string{"x", "ghost"}); err == nil {
		t.Fatal("missing group accepted")
	}
}

func TestTrackerSnapshotsStableUnderConcurrentAdvance(t *testing.T) {
	// The supported concurrency pattern: state handed out before an
	// Advance (group rowsets, results) is frozen — readers may keep using
	// it while the tracker advances. The race detector checks this.
	base := buildTable(t, baseRows())
	tr, err := NewTracker(base, sql)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := tr.Group("x")
	frozenRows := g.Rows
	frozenRes := tr.Result()
	app := relation.AppenderFor(base)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			frozenRows.Count()
			if r, ok := frozenRes.Lookup("x"); !ok || r.Group.IsEmpty() {
				t.Error("frozen result lost its group")
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		succ, err := app.Append([]relation.Row{row("x", 1, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Advance(succ); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if frozenRows.Universe() != base.NumRows() {
		t.Fatalf("frozen rowset universe changed to %d", frozenRows.Universe())
	}
}

// TestAdvanceCostFlat: an advance costs its batch, not the batches before
// it. On live-append's shape — 30 groups × 2,000 rows, clustered by group,
// then 50-row batches dealt over the groups at random — the bytes one
// Advance allocates after 500 earlier batches stay within 1.5× of the
// bytes after 10. Each side is the mean of ten consecutive advances, so a
// group whose run array happens to fill up on one batch does not decide
// it. It counts allocations, not time, so it is deterministic.
func TestAdvanceCostFlat(t *testing.T) {
	const groups, perGroup, batch = 30, 2000, 50
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, groups)
	for g := range keys {
		keys[g] = fmt.Sprintf("g%d", g)
	}
	var rows []relation.Row
	for g := 0; g < groups; g++ {
		for i := 0; i < perGroup; i++ {
			rows = append(rows, row(keys[g], rng.Float64(), rng.Float64()))
		}
	}
	base := buildTable(t, rows)
	tr, err := NewTracker(base, sql)
	if err != nil {
		t.Fatal(err)
	}
	app := relation.AppenderFor(base)
	next := func() *relation.Table {
		b := make([]relation.Row, batch)
		for i := range b {
			b[i] = row(keys[rng.Intn(groups)], rng.Float64(), rng.Float64())
		}
		succ, err := app.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		return succ
	}
	// bytesPerAdvance advances over ten new batches, built beforehand, and
	// returns the mean bytes each advance allocated.
	bytesPerAdvance := func() float64 {
		succ := make([]*relation.Table, 10)
		for i := range succ {
			succ[i] = next()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, s := range succ {
			if _, err := tr.Advance(s); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(succ))
	}
	advanceTo := func(batches int) {
		for (tr.Rows()-groups*perGroup)/batch < batches {
			if _, err := tr.Advance(next()); err != nil {
				t.Fatal(err)
			}
		}
	}
	advanceTo(10)
	early := bytesPerAdvance()
	advanceTo(500)
	late := bytesPerAdvance()
	t.Logf("bytes per advance: %.0f after 10 batches, %.0f after 500", early, late)
	if late > 1.5*early {
		t.Fatalf("an advance after 500 batches allocates %.0f bytes, %.1f× the %.0f after 10", late, late/early, early)
	}
	// The grown tracker still holds what a cold one does.
	cold, err := NewTracker(tr.Table(), sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		w, _ := tr.Group(k)
		c, _ := cold.Group(k)
		if !w.Rows.Equal(c.Rows) {
			t.Fatalf("group %q provenance %v != cold %v", k, w.Rows, c.Rows)
		}
	}
}

// TestAdvanceRoutesLikeRun: a tracker that routes each batch's rows by
// their raw group cells forms the groups query.Run forms on the same
// snapshot. The table groups by a discrete and a continuous column whose
// cells include two NaNs with different bits (one group), −0 and +0 (two
// groups); the batches bring a discrete value new to the dictionary (which
// also makes the WHERE filter's literal known), open groups, and one has no
// row the filter keeps. After every advance Result() has Run's keys in
// Run's order, its provenance, and its values and states to the bit. The
// aggregated values are small integers, so every partial sum is exact and
// the states Update merges are the ones a single ascending fold builds.
func TestAdvanceRoutesLikeRun(t *testing.T) {
	sch := relation.MustSchema(
		relation.Column{Name: "d", Kind: relation.Discrete},
		relation.Column{Name: "x", Kind: relation.Continuous},
		relation.Column{Name: "a", Kind: relation.Continuous},
		relation.Column{Name: "v", Kind: relation.Continuous},
	)
	xs := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000001), 0, 1.5, 2, -7}
	negZero := math.Copysign(0, -1)
	sqls := []string{
		"SELECT sum(v), d, x FROM t GROUP BY d, x",
		"SELECT sum(v), d, x FROM t WHERE a < 0.5 OR d = 'q9' GROUP BY d, x",
		"SELECT count(*), d, x FROM t WHERE a >= 0.25 GROUP BY d, x",
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mk := func(d string, x float64, a float64) relation.Row {
			return relation.Row{relation.S(d), relation.F(x), relation.F(a), relation.F(float64(rng.Intn(41) - 20))}
		}
		random := func(n int, ds []string) []relation.Row {
			rows := make([]relation.Row, n)
			for i := range rows {
				rows[i] = mk(ds[rng.Intn(len(ds))], xs[rng.Intn(len(xs))], rng.Float64())
			}
			return rows
		}
		old := []string{"p", "q", "10", "2.5"}
		baseRows := random(200, old)
		batches := [][]relation.Row{
			random(20, old),
			append(random(10, old), mk("q9", 1.5, 0.9), mk("q9", 1.5, 0.1), mk("p", 99, 0.2)), // new code, new groups
			{mk("p", 0, 0.7), mk("q", 2, 0.6), mk("10", 1.5, 0.99)},                           // no row passes the second filter
			{mk("p", negZero, 0.1), mk("q9", negZero, 0.3), mk("2.5", math.NaN(), 0.4)},       // −0 beside +0
			random(50, append(old, "q9")),
		}
		for _, sql := range sqls {
			base := buildTableOf(t, sch, baseRows)
			tr, err := NewTracker(base, sql)
			if err != nil {
				t.Fatal(err)
			}
			app := relation.AppenderFor(base)
			for b, batch := range batches {
				succ, err := app.Append(batch)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tr.Advance(succ); err != nil {
					t.Fatal(err)
				}
				cell := fmt.Sprintf("seed %d, %q, batch %d", seed, sql, b)
				q, err := query.FromSQL(succ, sql)
				if err != nil {
					t.Fatal(err)
				}
				want, err := q.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := tr.Result()
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s: %d groups, Run has %d: %v vs %v", cell, len(got.Rows), len(want.Rows), got.Keys(), want.Keys())
				}
				for i, w := range want.Rows {
					g := got.Rows[i]
					if g.Key != w.Key {
						t.Fatalf("%s: group %d is %q, Run's is %q", cell, i, g.Key, w.Key)
					}
					if !g.Group.Equal(w.Group) {
						t.Fatalf("%s: group %q rows %v, Run's %v", cell, w.Key, g.Group, w.Group)
					}
					if math.Float64bits(g.Value) != math.Float64bits(w.Value) {
						t.Fatalf("%s: group %q value %v, Run's %v", cell, w.Key, g.Value, w.Value)
					}
					st, _ := tr.Group(w.Key)
					ws := influence.GroupState(succ, q.AggCol, w.Group)
					if math.Float64bits(st.State.Sum) != math.Float64bits(ws.Sum) ||
						math.Float64bits(st.State.SumSq) != math.Float64bits(ws.SumSq) || math.Float64bits(st.State.N) != math.Float64bits(ws.N) {
						t.Fatalf("%s: group %q state %+v, a fold of Run's rows %+v", cell, w.Key, st.State, ws)
					}
				}
			}
		}
	}
}

func buildTableOf(t *testing.T, sch *relation.Schema, rows []relation.Row) *relation.Table {
	t.Helper()
	b := relation.NewBuilder(sch)
	for _, r := range rows {
		b.MustAppend(r)
	}
	return b.Build()
}
