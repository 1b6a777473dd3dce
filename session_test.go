package scorpion

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/scorpiondb/scorpion/internal/influence"
	"github.com/scorpiondb/scorpion/internal/obs"
	"github.com/scorpiondb/scorpion/internal/partition"
	"github.com/scorpiondb/scorpion/internal/predicate"
	"github.com/scorpiondb/scorpion/internal/query"
	"github.com/scorpiondb/scorpion/internal/synth"
)

// TestSessionColdMatchesOneShot: a Session's first run is a run of the
// same spine as ExplainContext, so it returns the same predicates in the
// same order with bit-equal scores, after the same number of scorer calls
// — on every algorithm, including DT, whose session run takes the DT path.
func TestSessionColdMatchesOneShot(t *testing.T) {
	cases := []struct {
		algo Algorithm
		agg  string
	}{
		{Naive, "sum"},
		{MC, "sum"},
		{DT, "avg"},
	}
	for _, tc := range cases {
		t.Run(tc.algo.String(), func(t *testing.T) {
			req := synthRequest(t, tc.agg, 150)
			req.Algorithm = tc.algo
			req.SetC(0.3)
			if tc.algo == Naive {
				req.Bins = 6
			}
			one, err := ExplainContext(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(req).Explain(context.Background(), req, 1)
			if err != nil {
				t.Fatal(err)
			}
			if sess.Stats.ReusedPartition || sess.Stats.Refreshed {
				t.Fatalf("cold session run reused state: %+v", sess.Stats)
			}
			sameAsOneShot(t, sess, one)
		})
	}
}

// sameAsOneShot fails unless a session run returned exactly what the
// one-shot run did: predicates, order, bit-equal scores and scorer calls.
func sameAsOneShot(t *testing.T, sess, one *Result) {
	t.Helper()
	if sess.Stats.ScorerCalls != one.Stats.ScorerCalls {
		t.Errorf("scorer calls: session %d, one-shot %d", sess.Stats.ScorerCalls, one.Stats.ScorerCalls)
	}
	if len(sess.Explanations) == 0 || len(sess.Explanations) != len(one.Explanations) {
		t.Fatalf("explanations: session %d, one-shot %d", len(sess.Explanations), len(one.Explanations))
	}
	for i, s := range sess.Explanations {
		o := one.Explanations[i]
		if !s.Predicate.Equal(o.Predicate) || math.Float64bits(s.Influence) != math.Float64bits(o.Influence) {
			t.Errorf("rank %d: session %q %v, one-shot %q %v", i, s.Where, s.Influence, o.Where, o.Influence)
		}
	}
}

// TestSessionDTAfterAppendRunsCold: the first DT-path run on a successor
// snapshot plans afresh, so it must be a cold run — no merge seeds from the
// previous snapshot's pools, whose scores are stale — and answer exactly
// what ExplainContext answers on that snapshot.
func TestSessionDTAfterAppendRunsCold(t *testing.T) {
	schema, rows := streamFixture(t)
	base := buildFrom(t, schema, rows)
	req := streamRequest(base)
	req.SQL = "SELECT avg(v), g FROM t GROUP BY g"
	req.Algorithm = DT
	sess := NewSession(req)
	for _, c := range []float64{0.5, 0.2} {
		r := *req
		r.SetC(c)
		if _, err := sess.Explain(context.Background(), &r, 1); err != nil {
			t.Fatal(err)
		}
	}
	succ, err := AppenderFor(base).Append(streamBatch(40, true))
	if err != nil {
		t.Fatal(err)
	}
	r := *req
	r.Table = succ
	r.SetC(0.1)
	got, err := sess.Explain(context.Background(), &r, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.ReusedPartition || got.Stats.Refreshed {
		t.Fatalf("first run on the successor reused state: %+v", got.Stats)
	}
	one, err := ExplainContext(context.Background(), &r)
	if err != nil {
		t.Fatal(err)
	}
	sameAsOneShot(t, got, one)
}

// tailFixture deals a synth table into a base snapshot holding three rows of
// every four of each group, and the remaining rows as k append batches, so
// that every batch touches every group without growing the table past
// MaxWarmGrowth.
func tailFixture(t *testing.T, k int) (base *Table, batches [][]Row, outliers, others []string, dims []string) {
	t.Helper()
	ds := synth.Generate(synth.Config{Dims: 2, TuplesPerGroup: 120, Groups: 5, OutlierGroups: 2, Mu: 80, Seed: 5})
	var baseRows, tail []Row
	for r := 0; r < ds.Table.NumRows(); r++ {
		if r%4 == 3 {
			tail = append(tail, ds.Table.Row(r))
		} else {
			baseRows = append(baseRows, ds.Table.Row(r))
		}
	}
	for b := 0; b < k; b++ {
		batches = append(batches, tail[b*len(tail)/k:(b+1)*len(tail)/k])
	}
	flagged := map[string]bool{}
	for _, key := range ds.OutlierKeys {
		flagged[key] = true
	}
	q, err := query.FromSQL(ds.Table, "SELECT count(*), g FROM synth GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	qres, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range qres.Keys() {
		if !flagged[key] {
			others = append(others, key)
		}
	}
	return buildFrom(t, ds.Table.Schema(), baseRows), batches, ds.OutlierKeys, others, ds.DimNames()
}

// refreshMatchesFullRescan refreshes pool c of sess on tbl (label gen) and
// fails unless the result and the re-scored pool are what a full
// rescoreExact of the pool's previous candidates gives on a freshly seeded
// scorer: candidates, order, scores, hold-out penalties and each kept
// selection, bit for bit; and the explanations present would render from
// that.
func refreshMatchesFullRescan(t *testing.T, sess *Session, r *Request, gen int64) {
	t.Helper()
	plan, err := r.Plan()
	if err != nil {
		t.Fatal(err)
	}
	p := sess.pools[plan.c]
	if p == nil || p.sels == nil {
		t.Fatalf("no refreshable pool at c=%v", plan.c)
	}
	before := append([]partition.Candidate(nil), p.cands...)
	got, err := sess.Explain(context.Background(), r, gen)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stats.Refreshed {
		t.Fatalf("gen %d did not refresh: %s", gen, sess.FallbackReason())
	}
	if p.absorbed != r.Table.NumRows() {
		t.Fatalf("pool absorbed %d rows, table has %d", p.absorbed, r.Table.NumRows())
	}

	tr := sess.tracker
	qres := tr.Result()
	task, err := bindTask(plan, tr.Removable(), tr.AggCol(), qres)
	if err != nil {
		t.Fatal(err)
	}
	outStates, _ := tr.States(groupKeys(task.Outliers))
	holdStates, _ := tr.States(groupKeys(task.HoldOuts))
	ref, err := influence.NewScorerSeeded(task, outStates, holdStates)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rescoreExact(ref, nil, before, false)
	if got.Stats.ScorerCalls != ref.Calls() {
		t.Errorf("scorer calls %d, full rescan %d", got.Stats.ScorerCalls, ref.Calls())
	}
	if len(p.cands) != len(want) {
		t.Fatalf("pool has %d candidates, full rescan %d", len(p.cands), len(want))
	}
	for i, w := range want {
		c := p.cands[i]
		if !c.Pred.Equal(w.Pred) || math.Float64bits(c.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(c.HoldPenalty) != math.Float64bits(w.HoldPenalty) {
			t.Fatalf("rank %d: tail refresh %v %v/%v, full rescan %v %v/%v",
				i, c.Pred.Key(), c.Score, c.HoldPenalty, w.Pred.Key(), w.Score, w.HoldPenalty)
		}
		sels := ref.Select(w.Pred, nil)
		for g := range sels {
			if p.sels[i][g] != sels[g] {
				t.Fatalf("rank %d group %s: kept selection %+v, full fold %+v", i, p.keys[g], p.sels[i][g], sels[g])
			}
		}
	}
	wantRes := present(plan, ref, want, nil, qres)
	if len(got.Explanations) != len(wantRes.Explanations) {
		t.Fatalf("explanations: tail refresh %d, full rescan %d", len(got.Explanations), len(wantRes.Explanations))
	}
	for i, e := range got.Explanations {
		w := wantRes.Explanations[i]
		if e.Where != w.Where || math.Float64bits(e.Influence) != math.Float64bits(w.Influence) ||
			math.Float64bits(e.HoldOutPenalty) != math.Float64bits(w.HoldOutPenalty) ||
			e.MatchedOutlierTuples != w.MatchedOutlierTuples {
			t.Fatalf("explanation %d: tail refresh %q %v/%v/%d, full rescan %q %v/%v/%d", i,
				e.Where, e.Influence, e.HoldOutPenalty, e.MatchedOutlierTuples,
				w.Where, w.Influence, w.HoldOutPenalty, w.MatchedOutlierTuples)
		}
	}
}

// TestSessionTailRefreshMatchesFullRescan: a warm refresh tests only the
// rows its pool's selections have not absorbed, and still answers what a
// full re-scan of every group answers, bit for bit — over K append batches,
// NAIVE, MC and (through NewRefresher) DT, sum, count(*) and avg, the
// default c and c = 0 (influence unscaled by cardinality), explicit and
// all-others hold-outs.
func TestSessionTailRefreshMatchesFullRescan(t *testing.T) {
	for _, k := range []int{1, 2, 7} {
		base, batches, outliers, others, dims := tailFixture(t, k)
		for _, algo := range []Algorithm{Naive, MC, DT} {
			for _, agg := range []string{"sum(v)", "count(*)", "avg(v)"} {
				if algo == MC && agg == "avg(v)" {
					continue // MC needs an anti-monotonic aggregate
				}
				for _, c := range []float64{DefaultC, 0} {
					for _, allOthers := range []bool{true, false} {
						name := fmt.Sprintf("K=%d/%s/%s/c=%v/all-others=%v", k, algo, agg, c, allOthers)
						t.Run(name, func(t *testing.T) {
							req := &Request{
								Table: base, SQL: "SELECT " + agg + ", g FROM synth GROUP BY g",
								Outliers: outliers, Attributes: dims, Algorithm: algo,
							}
							if algo == Naive {
								req.Bins = 5
							}
							req.SetC(c)
							if allOthers {
								req.AllOthersHoldOut = true
							} else {
								req.HoldOuts = others[:2]
							}
							sess, err := NewRefresher(req)
							if err != nil {
								t.Fatal(err)
							}
							if _, err := sess.Explain(context.Background(), req, 1); err != nil {
								t.Fatal(err)
							}
							app := AppenderFor(base)
							for b, batch := range batches {
								succ, err := app.Append(batch)
								if err != nil {
									t.Fatal(err)
								}
								r := *req
								r.Table = succ
								refreshMatchesFullRescan(t, sess, &r, int64(b+2))
							}
						})
					}
				}
			}
		}
	}
}

// TestSessionTailRefreshPerPoolAbsorbed: two pools at different c refreshed
// on different generations each fold from the rows they absorbed, not from
// where the shared tracker stands; and a candidate matching a whole group
// before and after the append (the EmptySafe branch) refreshes exactly.
func TestSessionTailRefreshPerPoolAbsorbed(t *testing.T) {
	base, batches, outliers, _, dims := tailFixture(t, 3)
	req := &Request{
		Table: base, SQL: "SELECT sum(v), g FROM synth GROUP BY g", Outliers: outliers,
		AllOthersHoldOut: true, Attributes: dims, Algorithm: Naive, Bins: 5,
	}
	at := func(tbl *Table, c float64) *Request {
		r := *req
		r.Table = tbl
		r.SetC(c)
		return &r
	}
	sess := NewSession(req)
	for _, c := range []float64{0.3, 0.5} {
		if _, err := sess.Explain(context.Background(), at(base, c), 1); err != nil {
			t.Fatal(err)
		}
	}
	// Every row of every group: Δ is the whole group's deletion.
	everything := predicate.MustNew(predicate.NewRangeClause(base.Schema().MustIndex(dims[0]), dims[0], math.Inf(-1), math.Inf(1), true))
	p := sess.pools[0.5]
	plan, _ := at(base, 0.5).Plan()
	seeded, _, _, err := buildScorer(plan)
	if err != nil {
		t.Fatal(err)
	}
	p.cands = append(p.cands, partition.Candidate{Pred: everything})
	p.sels = append(p.sels, seeded.Select(everything, nil))

	app := AppenderFor(base)
	var tbls []*Table
	for _, batch := range batches {
		succ, err := app.Append(batch)
		if err != nil {
			t.Fatal(err)
		}
		tbls = append(tbls, succ)
	}
	refreshMatchesFullRescan(t, sess, at(tbls[0], 0.3), 2)
	// The tracker now stands at tbls[0]; the c=0.5 pool has absorbed only
	// base and must fold both batches.
	refreshMatchesFullRescan(t, sess, at(tbls[1], 0.5), 3)
	q, err := query.FromSQL(tbls[1], req.SQL)
	if err != nil {
		t.Fatal(err)
	}
	qres, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range p.cands {
		if !c.Pred.Equal(everything) {
			continue
		}
		for g, key := range p.keys {
			row, _ := qres.Lookup(key)
			if got := p.sels[i][g].Matched(); got != row.Group.Count() {
				t.Fatalf("whole-group candidate matches %d rows of group %s, which has %d", got, key, row.Group.Count())
			}
		}
	}
	refreshMatchesFullRescan(t, sess, at(tbls[2], 0.3), 4)
}

// TestSessionRefreshCountsRowsScanned: a refresh after a 50-row append tests
// 50 rows per pool candidate, counts them in
// scorpion_refresh_rows_scanned_total, and traces its phases as one refresh
// span with advance, seed, rescore and present children.
func TestSessionRefreshCountsRowsScanned(t *testing.T) {
	schema, rows := streamFixture(t)
	base := buildFrom(t, schema, rows)
	req := streamRequest(base)
	sess := NewSession(req)
	reg := obs.NewRegistry()
	ctx := obs.ContextWithRegistry(context.Background(), reg)
	if _, err := sess.Explain(ctx, req, 1); err != nil {
		t.Fatal(err)
	}
	size := len(sess.pools[DefaultC].cands)
	if size == 0 {
		t.Fatal("the cold run left an empty pool")
	}
	succ, err := AppenderFor(base).Append(streamBatch(50, true))
	if err != nil {
		t.Fatal(err)
	}
	root := obs.NewSpan("explain")
	r := *req
	r.Table = succ
	res, err := sess.Explain(obs.ContextWithSpan(ctx, root), &r, 2)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if !res.Stats.Refreshed {
		t.Fatalf("no refresh: %s", sess.FallbackReason())
	}
	if got, want := reg.Counter("scorpion_refresh_rows_scanned_total").Value(), float64(50*size); got != want {
		t.Fatalf("scorpion_refresh_rows_scanned_total = %v, want 50 rows x %d candidates = %v", got, size, want)
	}
	span := root.Snapshot().Find("refresh")
	if span == nil {
		t.Fatal("no refresh span")
	}
	var names []string
	for _, c := range span.Children {
		names = append(names, c.Name)
	}
	if got := strings.Join(names, ","); got != "advance,seed,rescore,present" {
		t.Fatalf("refresh span children = %s, want advance,seed,rescore,present", got)
	}
}

// TestSessionPoolAlignsSelectionsByKey: kept selections follow their group
// keys when a task lists the groups in another order, and a task labelling
// a group the selections never covered leaves the pool untouched.
func TestSessionPoolAlignsSelectionsByKey(t *testing.T) {
	schema, rows := streamFixture(t)
	tbl := buildFrom(t, schema, rows)
	req := streamRequest(tbl)
	plan, err := req.Plan()
	if err != nil {
		t.Fatal(err)
	}
	scorer, _, _, err := buildScorer(plan)
	if err != nil {
		t.Fatal(err)
	}
	pred := predicate.MustNew(predicate.NewRangeClause(1, "a", 4, 6, true))
	sels := scorer.Select(pred, nil)
	keys := append(groupKeys(scorer.Task().Outliers), groupKeys(scorer.Task().HoldOuts)...)
	if strings.Join(keys, ",") != "out,hold1,hold2" {
		t.Fatalf("group order %v", keys)
	}
	p := &pool{sels: [][]influence.Selection{slices.Clone(sels)}, keys: keys}
	if p.align([]string{"out"}, []string{"hold1", "brandnew"}) {
		t.Fatal("aligned onto a group the selections never covered")
	}
	if !slices.Equal(p.keys, keys) || !slices.Equal(p.sels[0], sels) {
		t.Fatal("a failed alignment changed the pool")
	}
	if sels[0] == sels[1] {
		t.Fatal("the outlier's selection must differ from a hold-out's")
	}
	if !p.align([]string{"hold2"}, []string{"out", "hold1"}) {
		t.Fatal("alignment failed")
	}
	if want := []influence.Selection{sels[2], sels[0], sels[1]}; !slices.Equal(p.sels[0], want) {
		t.Fatalf("aligned selections %v, want %v", p.sels[0], want)
	}
	if strings.Join(p.keys, ",") != "hold2,out,hold1" {
		t.Fatalf("aligned keys %v", p.keys)
	}
}

// TestSessionRefreshPowersPerC: a session holding pools at c = 0.2, 0.35
// and 0 refreshes each in turn, with an append before every refresh, and
// every explanation it serves carries the bits the cold one-shot path's
// scorer gives its predicate on the same snapshot. Each pool's refreshes
// share one n^c table; a table that leaked to another c would move these
// bits. The aggregated values are whole numbers, so a group state the
// tracker merged from batches has the bits of the cold scorer's single
// fold.
func TestSessionRefreshPowersPerC(t *testing.T) {
	base, batches, outliers, _, dims := tailFixture(t, 6)
	vcol, _ := base.Schema().Index("v")
	whole := func(rows []Row) []Row {
		out := make([]Row, len(rows))
		for i, row := range rows {
			out[i] = append(Row(nil), row...)
			out[i][vcol] = F(math.Round(row[vcol].Float()))
		}
		return out
	}
	var baseRows []Row
	for r := 0; r < base.NumRows(); r++ {
		baseRows = append(baseRows, base.Row(r))
	}
	tbl := buildFrom(t, base.Schema(), whole(baseRows))
	req := &Request{
		Table: tbl, SQL: "SELECT sum(v), g FROM synth GROUP BY g", Outliers: outliers,
		AllOthersHoldOut: true, Attributes: dims, Algorithm: MC,
	}
	at := func(tbl *Table, c float64) *Request {
		r := *req
		r.Table = tbl
		r.SetC(c)
		return &r
	}
	cs := []float64{0.2, 0.35, 0}
	sess := NewSession(req)
	for _, c := range cs {
		if _, err := sess.Explain(context.Background(), at(tbl, c), 1); err != nil {
			t.Fatal(err)
		}
	}
	app := AppenderFor(tbl)
	for b, batch := range batches {
		succ, err := app.Append(whole(batch))
		if err != nil {
			t.Fatal(err)
		}
		c := cs[b%len(cs)]
		r := at(succ, c)
		res, err := sess.Explain(context.Background(), r, int64(b+2))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Refreshed {
			t.Fatalf("batch %d at c=%v did not refresh: %s", b, c, sess.FallbackReason())
		}
		plan, err := r.Plan()
		if err != nil {
			t.Fatal(err)
		}
		cold, _, _, err := buildScorer(plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Explanations) == 0 {
			t.Fatalf("batch %d at c=%v: no explanation", b, c)
		}
		for _, e := range res.Explanations {
			if want := cold.Influence(e.Predicate); math.Float64bits(e.Influence) != math.Float64bits(want) {
				t.Fatalf("batch %d at c=%v: %s scores %v warm, %v cold", b, c, e.Where, e.Influence, want)
			}
		}
	}
}
