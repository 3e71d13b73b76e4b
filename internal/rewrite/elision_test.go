package rewrite_test

import (
	"context"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/period"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
)

// TestPlannerCoalesceElisionGrid is the differential grid of the final
// coalesce elision. qgen's elision queries put an aggregation or a
// difference under injective and non-injective projections and data-only
// selections, with and without a window. At
// parallelism 1 and 2, over unsorted and begin-sorted tables:
//
//   - the plan has no coalesce exactly when engine.Coalesced says its
//     root already is the unique encoding, and at most one otherwise;
//   - the result is coalesced and equals the (clipped) period-layer
//     result, which in turn equals the internal/snapshot oracle.
//
// Filters reading a period attribute cannot come from a query, so the
// grid wraps each elided plan in one directly: engine.Coalesced must
// refuse it, and accept the same plan under a data-only filter, whose
// output must then be coalesced on both executors.
func TestPlannerCoalesceElisionGrid(t *testing.T) {
	g := qgen.New(1414)
	windows := []interval.Interval{{}, interval.New(3, 11)}
	elided, kept := 0, 0
	for i := 0; i < 60; i++ {
		spec := g.GenDB()
		q := g.GenElisionQuery()
		pdb := spec.ToPeriodDB()
		wantRel, err := pdb.Eval(q)
		if err != nil {
			t.Fatalf("period eval: %v (%s)", err, q)
		}
		oracle, err := spec.ToSnapshotDB().Eval(q)
		if err != nil {
			t.Fatalf("snapshot oracle: %v (%s)", err, q)
		}
		if !period.Dec(wantRel, spec.Dom).Equal(oracle) {
			t.Fatalf("period evaluation disagrees with the snapshot oracle on %s", q)
		}
		for _, sorted := range []bool{false, true} {
			s := spec
			if sorted {
				s = spec.SortedByBegin()
			}
			edb := s.ToEngineDB()
			for _, par := range []int{1, 2} {
				for _, T := range windows {
					opt := rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: par, Window: T}
					p, _, err := rewrite.PlanQuery(q, edb, opt)
					if err != nil {
						t.Fatalf("plan: %v (%s)", err, q)
					}
					n := engine.CountCoalesce(p)
					if n > 1 || engine.Coalesced(p) != (n == 0) {
						t.Fatalf("opt %+v: plan has %d coalesce operators but Coalesced = %v:\n%s", opt, n, engine.Coalesced(p), p)
					}
					if n == 0 {
						elided++
					} else {
						kept++
					}
					got, err := rewrite.Run(edb, q, opt)
					if err != nil {
						t.Fatalf("opt %+v: %v (%s)", opt, err, q)
					}
					if !engine.IsCoalesced(got, engine.CoalesceNative) {
						t.Fatalf("opt %+v: result is not the unique encoding\nquery: %s\nplan:  %s\ngot:\n%s", opt, q, p, got)
					}
					want := wantRel
					if T.Valid() {
						want = engine.ClipWindow(engine.FromPeriodRelation(wantRel), T).ToPeriodRelation(pdb.Algebra())
					}
					if gotRel := got.ToPeriodRelation(pdb.Algebra()); !gotRel.Equal(want) {
						t.Fatalf("opt %+v: result differs from the oracle\nquery: %s\nplan:  %s\ngot:  %v\nwant: %v", opt, q, p, gotRel, want)
					}
				}
			}
			checkFilterElision(t, edb, q)
		}
	}
	if elided == 0 || kept == 0 {
		t.Fatalf("grid never exercised both sides of the rule: %d plans elided the coalesce, %d kept it", elided, kept)
	}
}

// checkFilterElision wraps q's plan, when it elides the coalesce, in a
// filter over _begin and in a data-only filter: engine.Coalesced must
// refuse the first and accept the second, whose output must be the
// unique encoding at one and two workers.
func checkFilterElision(t *testing.T, edb *engine.DB, q algebra.Query) {
	t.Helper()
	p, _, err := rewrite.PlanQuery(q, edb, rewrite.Options{Mode: rewrite.ModeOptimized})
	if err != nil {
		t.Fatal(err)
	}
	if !engine.Coalesced(p) {
		return
	}
	byBegin := engine.FilterP{Pred: algebra.Lt(algebra.Col(engine.BeginCol), algebra.IntC(8)), In: p}
	if engine.Coalesced(byBegin) {
		t.Fatalf("a filter over %s kept the coalesced guarantee: %s", engine.BeginCol, byBegin)
	}
	res, err := edb.Exec(p)
	if err != nil {
		t.Fatal(err)
	}
	first := algebra.Col(res.Schema.Cols[0])
	byData := engine.FilterP{Pred: algebra.Or(algebra.IsNullExpr{E: first}, algebra.Gt(first, algebra.IntC(1))), In: p}
	if !engine.Coalesced(byData) {
		t.Fatalf("a data-only filter lost the coalesced guarantee: %s", byData)
	}
	for _, workers := range []int{1, 2} {
		it, err := parallel.Exec(context.Background(), edb, byData, parallel.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.MaterializeErr(it)
		it.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !engine.IsCoalesced(got, engine.CoalesceNative) {
			t.Fatalf("workers %d: data-only filter over %s is not coalesced:\n%s", workers, p, got)
		}
	}
}
