// EXPLAIN ANALYZE tests at the rewrite layer: the acceptance criterion
// that analyzed row counts exactly match what the cursor observed,
// across the qgen equivalence grid, and goroutine hygiene when an
// analyzed parallel pipeline is closed early.
package rewrite_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/obs"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
	"snapk/internal/tuple"
)

// checkStatsSane asserts the per-node counter invariants that hold for
// any drained ObsIter: per-row pulls cost one Next call per yielded row,
// batch pulls cost one call per delivered batch (never more calls than
// rows+batches combined would explain), and every node is labeled.
func checkStatsSane(t *testing.T, st *engine.OpStats, q algebra.Query) {
	t.Helper()
	if st.Label == "" {
		t.Fatalf("unlabeled stats node (query %s)", q)
	}
	if st.Batches() > 0 {
		// Batch-amortized node: each pull call delivers a whole batch, so
		// nexts tracks batches (plus per-row pulls from mixed drivers and
		// the exhausting call), not rows. Exchange nodes count batches
		// from the producer side without an ObsIter pull counter, so only
		// nodes that saw pulls are held to it.
		if st.Nexts() > 0 && st.Nexts() < st.Batches() {
			t.Fatalf("node %s: nexts=%d < batches=%d (query %s)", st.Label, st.Nexts(), st.Batches(), q)
		}
	} else if st.Nexts() < st.Rows() {
		t.Fatalf("node %s: nexts=%d < rows=%d (query %s)", st.Label, st.Nexts(), st.Rows(), q)
	}
	for _, c := range st.Children() {
		checkStatsSane(t, c, q)
	}
}

// TestAnalyzeRowCountsMatchCursor pins the EXPLAIN ANALYZE acceptance
// criterion over the qgen grid (parallelism × sortedness): the root operator's measured row count must equal the
// number of rows the cursor actually pulled, exactly, for every
// configuration — the stats tree observes the same stream the client
// does.
func TestAnalyzeRowCountsMatchCursor(t *testing.T) {
	g := qgen.New(733)
	var opts []rewrite.Options
	for _, par := range []int{0, 2, 4} {
		opts = append(opts, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: par})
	}
	for i := 0; i < 25; i++ {
		spec := g.GenDB()
		q := g.GenQuery()
		for _, sorted := range []bool{false, true} {
			s := spec
			if sorted {
				s = spec.SortedByBegin()
			}
			edb := s.ToEngineDB()
			for _, opt := range opts {
				opt.Collect = engine.NewCollector()
				it, err := rewrite.Stream(context.Background(), edb, q, opt)
				if err != nil {
					t.Fatalf("stream: %v (%s)", err, q)
				}
				var drained int64
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					drained++
				}
				if err := engine.IterErr(it); err != nil {
					t.Fatalf("stream error: %v (%s)", err, q)
				}
				it.Close()
				root := opt.Collect.RootOp()
				if root == nil {
					t.Fatalf("no stats collected (opt %+v, query %s)", opt, q)
				}
				if root.Rows() != drained {
					t.Fatalf("iteration %d, sorted %v, opt %+v: analyze root rows=%d, cursor observed %d\nquery: %s\n%s",
						i, sorted, opt, root.Rows(), drained, q, opt.Collect.Render())
				}
				checkStatsSane(t, root, q)
			}
		}
	}
}

// analyzeLeakDB builds a table large enough that a parallel pipeline is
// still in flight when the cursor closes early.
func analyzeLeakDB() *engine.DB {
	db := engine.NewDB(dom)
	tb := db.CreateTable("big", tuple.NewSchema("g", "v"))
	for i := 0; i < 20000; i++ {
		b := int64(i % 20)
		tb.Append(tuple.Tuple{tuple.Int(int64(i % 7)), tuple.Int(int64(i))}, interval.New(b, b+2), 1)
	}
	return db
}

// waitForGoroutines polls until the goroutine count drops back to at
// most base, tolerating runtime background goroutines.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d running, want <= %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}

// Attaching a collector must not change pipeline teardown: closing an
// analyzed parallel query right after the first row (the early
// Rows.Close path) must reap every fragment and exchange goroutine.
func TestAnalyzeEarlyCloseReapsFragments(t *testing.T) {
	db := analyzeLeakDB()
	q := algebra.Agg{
		GroupBy: []string{"g"},
		Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}},
		In:      algebra.Rel{Name: "big"},
	}
	base := runtime.NumGoroutine()
	col := engine.NewCollector()
	it, err := rewrite.Stream(context.Background(), db, q,
		rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: 4, Collect: col})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); !ok {
		t.Fatal("empty pipeline")
	}
	it.Close()
	it.Close() // idempotent
	if col.RootOp() == nil || col.RootOp().Rows() != 1 {
		t.Fatalf("analyzed row count after early close = %v, want 1", col.RootOp().Rows())
	}
	waitForGoroutines(t, base)
}

// TestRegistryCountsExecution pins when the process-wide registry
// counts: planning alone (what EXPLAIN does) leaves every counter
// unchanged, while each executed query adds one query, exactly the rows
// it delivered (also when its cursor is closed early), and one sweep
// count per sweep operator of the plan that ran.
func TestRegistryCountsExecution(t *testing.T) {
	db := exampleDB()
	delta := func(before obs.Snapshot) obs.Snapshot {
		after := obs.Default.Snapshot()
		return obs.Snapshot{
			QueriesRun:  after.QueriesRun - before.QueriesRun,
			RowsEmitted: after.RowsEmitted - before.RowsEmitted,
			Sweeps:      after.Sweeps - before.Sweeps,
		}
	}
	optimized := rewrite.Options{Mode: rewrite.ModeOptimized}

	before := obs.Default.Snapshot()
	for _, opt := range []rewrite.Options{optimized, {Parallelism: 2}, {Mode: rewrite.ModeNaive}} {
		if _, _, err := rewrite.PlanQuery(qOnduty(), db, opt); err != nil {
			t.Fatal(err)
		}
	}
	if d := delta(before); d != (obs.Snapshot{}) {
		t.Fatalf("planning alone changed the registry: %s", d)
	}

	// Qonduty plans one pre-aggregated split; it emits the unique
	// encoding, so no final coalesce runs above it.
	before = obs.Default.Snapshot()
	it, err := rewrite.Stream(context.Background(), db, qOnduty(), optimized)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		n++
	}
	if err := engine.IterErr(it); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if d, want := delta(before), (obs.Snapshot{QueriesRun: 1, RowsEmitted: n, Sweeps: 1}); n == 0 || d != want {
		t.Fatalf("drained stream of %d rows: registry delta %s, want %s", n, d, want)
	}

	// A join keeps its final coalesce, which counts as the one sweep.
	join := algebra.Join{L: algebra.Rel{Name: "works"}, R: algebra.Rel{Name: "assign"}, Pred: algebra.Eq(algebra.Col("skill"), algebra.Col("r.skill"))}
	before = obs.Default.Snapshot()
	tbl, err := rewrite.Run(db, join, optimized)
	if err != nil {
		t.Fatal(err)
	}
	if d, want := delta(before), (obs.Snapshot{QueriesRun: 1, RowsEmitted: int64(tbl.Len()), Sweeps: 1}); tbl.Len() == 0 || d != want {
		t.Fatalf("join: registry delta %s, want %s", d, want)
	}

	before = obs.Default.Snapshot()
	it, err = rewrite.Stream(context.Background(), db, qSkillreq(), rewrite.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); !ok {
		t.Fatal("empty result")
	}
	it.Close()
	d := delta(before)
	if want := (obs.Snapshot{QueriesRun: 1, RowsEmitted: 1, Sweeps: 1}); d != want {
		t.Fatalf("stream closed after one row: registry delta %s, want %s (one sweep: the difference)", d, want)
	}

	before = obs.Default.Snapshot()
	tbl, err = rewrite.Run(db, qOnduty(), rewrite.Options{Mode: rewrite.ModeOptimized, Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	if d, want := delta(before), (obs.Snapshot{QueriesRun: 1, RowsEmitted: int64(tbl.Len()), Sweeps: 1}); d != want {
		t.Fatalf("materialized run: registry delta %s, want %s", d, want)
	}
}
