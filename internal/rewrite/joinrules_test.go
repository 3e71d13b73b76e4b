package rewrite_test

import (
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/period"
	"snapk/internal/qgen"
	"snapk/internal/rewrite"
	"snapk/internal/semiring"
)

// joinRulesOpts are the plan configurations the join-rule grid runs:
// both plan modes, the sequential and parallel streaming executors and
// the materializing one. Phase 1 — and with it every optimizer rule —
// runs in all of them.
var joinRulesOpts = []rewrite.Options{
	{Mode: rewrite.ModeOptimized},
	{Mode: rewrite.ModeOptimized, Parallelism: 2},
	{Mode: rewrite.ModeOptimized, Materialize: true},
	{Mode: rewrite.ModeNaive},
}

// checkJoinRules runs q, planned through PlanQuery, on the database spec
// under every joinRulesOpts configuration and requires the result to be
// exactly the period-layer evaluation of q as written (which never runs
// algebra.Optimize), whose snapshots must in turn equal the
// internal/snapshot oracle's.
func checkJoinRules(t *testing.T, spec qgen.DBSpec, q algebra.Query) {
	t.Helper()
	pdb := spec.ToPeriodDB()
	want, err := pdb.Eval(q)
	if err != nil {
		t.Fatalf("period eval: %v (%s)", err, q)
	}
	oracle, err := spec.ToSnapshotDB().Eval(q)
	if err != nil {
		t.Fatalf("snapshot oracle: %v (%s)", err, q)
	}
	if !period.Dec(want, spec.Dom).Equal(oracle) {
		t.Fatalf("period evaluation disagrees with the snapshot oracle on %s", q)
	}
	edb := spec.ToEngineDB()
	for _, opt := range joinRulesOpts {
		got, err := rewrite.Run(edb, q, opt)
		if err != nil {
			t.Fatalf("opt %+v: %v (%s)", opt, err, q)
		}
		if gotRel := got.ToPeriodRelation(pdb.Algebra()); !gotRel.Equal(want) {
			opt2, _ := algebra.Optimize(q, edb)
			t.Fatalf("opt %+v: planned result differs from the query as written\nquery:     %s\noptimized: %s\ngot:  %v\nwant: %v",
				opt, q, opt2, gotRel, want)
		}
	}
}

// TestPushdownJoinRulesGrid is the differential grid of phase 1's join
// rules — pushdown into join sides, absorption of cross-side conjuncts
// into the join predicate, OR-derived side predicates and column pruning
// — over qgen's join-focused queries. Besides agreeing with both
// oracles, every optimized query must have absorbed each selection that
// sat directly above a join, and across the grid the rules must actually
// fire: some projection narrowed, some disjunction derived.
func TestPushdownJoinRulesGrid(t *testing.T) {
	g := qgen.New(1313)
	narrowed, derived := 0, 0
	for i := 0; i < 150; i++ {
		spec := g.GenDB()
		q := g.GenJoinQuery()
		checkJoinRules(t, spec, q)
		opt, err := algebra.Optimize(q, spec.ToEngineDB())
		if err != nil {
			t.Fatal(err)
		}
		if n := selectsOverJoins(opt); n > 0 {
			t.Fatalf("%d selections left directly above a join: %s", n, opt)
		}
		if projectWidth(opt) < projectWidth(q) {
			narrowed++
		}
		if countOr(opt) > countOr(q) {
			derived++
		}
	}
	if narrowed == 0 || derived == 0 {
		t.Fatalf("rules never fired over the grid: %d queries narrowed, %d with derived disjunctions", narrowed, derived)
	}
}

// FuzzOptimizeJoinRules fuzzes the same property over the generator
// seed: one random database and join-focused query per input.
func FuzzOptimizeJoinRules(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1313} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		g := qgen.New(seed)
		checkJoinRules(t, g.GenDB(), g.GenJoinQuery())
	})
}

func selectsOverJoins(q algebra.Query) int {
	n := 0
	algebra.Walk(q, func(x algebra.Query) {
		if s, ok := x.(algebra.Select); ok {
			if _, ok := s.In.(algebra.Join); ok {
				n++
			}
		}
	})
	return n
}

func projectWidth(q algebra.Query) int {
	n := 0
	algebra.Walk(q, func(x algebra.Query) {
		if p, ok := x.(algebra.Project); ok {
			n += len(p.Exprs)
		}
	})
	return n
}

func countOr(q algebra.Query) int {
	n := 0
	var expr func(e algebra.Expr)
	expr = func(e algebra.Expr) {
		switch x := e.(type) {
		case algebra.BinOp:
			if x.Op == algebra.OpOr {
				n++
			}
			expr(x.L)
			expr(x.R)
		case algebra.Not:
			expr(x.E)
		case algebra.IsNullExpr:
			expr(x.E)
		}
	}
	algebra.Walk(q, func(x algebra.Query) {
		switch y := x.(type) {
		case algebra.Select:
			expr(y.Pred)
		case algebra.Join:
			expr(y.Pred)
		}
	})
	return n
}

// TestPushdownRenamesSetOpRightSide: a union or difference takes its
// column names from the left input, so a selection pushed into the
// right input must be renamed by position. Here the right input holds
// the same rows with its two column names swapped; pushing
// σ(name = 'Ann') unrenamed would filter its other column.
func TestPushdownRenamesSetOpRightSide(t *testing.T) {
	db := exampleDB()
	left := algebra.ProjectCols(algebra.Rel{Name: "works"}, "name", "skill")
	swapped := algebra.Project{Exprs: []algebra.NamedExpr{
		{Name: "skill", E: algebra.Col("name")},
		{Name: "name", E: algebra.Col("skill")},
	}, In: algebra.Rel{Name: "works"}}
	pred := algebra.Eq(algebra.Col("name"), algebra.StrC("Ann"))
	pdb := period.NewDB[int64](semiring.N, dom)
	loadPeriod(pdb, db, "works")
	for _, q := range []algebra.Query{
		algebra.Select{Pred: pred, In: algebra.Union{L: left, R: swapped}},
		algebra.Select{Pred: pred, In: algebra.Diff{L: left, R: swapped}},
	} {
		want, err := pdb.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rewrite.Run(db, q, rewrite.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !got.ToPeriodRelation(alg).Equal(want) {
			t.Fatalf("%s: pushed plan disagrees with the query as written:\n%v\nwant %v", q, got.ToPeriodRelation(alg), want)
		}
	}
}
