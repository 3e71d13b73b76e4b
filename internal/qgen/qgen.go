// Package qgen generates random temporal databases and random RA_agg
// queries over them. It powers the cross-layer equivalence tests that
// mechanically verify the commuting diagram of Figure 2: the abstract
// model (package snapshot), the logical model (package period) and the
// rewritten implementation (packages rewrite + engine) must agree on
// every generated (database, query) pair.
package qgen

import (
	"fmt"
	"math/rand"
	"sort"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/period"
	"snapk/internal/semiring"
	"snapk/internal/snapshot"
	"snapk/internal/tuple"
)

// Fact is one interval-timestamped tuple with a multiplicity.
type Fact struct {
	Tuple tuple.Tuple
	Iv    interval.Interval
	Mult  int64
}

// Table is a generated period multiset table.
type Table struct {
	Name   string
	Schema tuple.Schema
	Facts  []Fact
}

// DBSpec is a generated temporal database in a model-neutral form; it can
// be loaded into any of the three model layers.
type DBSpec struct {
	Dom    interval.Domain
	Tables []Table
}

// Gen bundles a random source with generation parameters.
type Gen struct {
	R *rand.Rand
	// MaxDepth bounds the operator depth of generated queries.
	MaxDepth int
	// MaxFacts bounds facts per table.
	MaxFacts int
}

// New returns a generator with sensible defaults for unit tests.
func New(seed int64) *Gen {
	return &Gen{R: rand.New(rand.NewSource(seed)), MaxDepth: 4, MaxFacts: 12}
}

// twoColSchema is the fixed schema of generated tables: two integer
// columns. Keeping every subquery at this schema makes union/difference
// compatibility trivial while still exercising all operators.
var twoColSchema = tuple.NewSchema("a", "b")

// GenDB generates a database with two tables r and s over domain [0, 16).
func (g *Gen) GenDB() DBSpec {
	dom := interval.NewDomain(0, 16)
	spec := DBSpec{Dom: dom}
	for _, name := range []string{"r", "s"} {
		t := Table{Name: name, Schema: twoColSchema}
		n := g.R.Intn(g.MaxFacts + 1)
		for i := 0; i < n; i++ {
			begin := dom.Min + int64(g.R.Intn(int(dom.Size()-1)))
			end := begin + 1 + int64(g.R.Intn(int(dom.Max-begin)))
			t.Facts = append(t.Facts, Fact{
				Tuple: tuple.Tuple{g.genValue(), g.genValue()},
				Iv:    interval.New(begin, end),
				Mult:  1 + int64(g.R.Intn(2)),
			})
		}
		spec.Tables = append(spec.Tables, t)
	}
	return spec
}

// genValue produces a small integer or, occasionally, NULL — so the
// cross-layer tests also pin down SQL NULL semantics (three-valued
// predicates, NULL-excluding joins, NULL-skipping aggregates) across the
// oracle, the logical model and the engine.
func (g *Gen) genValue() tuple.Value {
	if g.R.Intn(8) == 0 {
		return tuple.Null
	}
	return tuple.Int(int64(g.R.Intn(4)))
}

// SortedByBegin returns a copy of the spec whose facts are ordered by
// ascending interval begin within each table. Loading the copy into the
// engine yields begin-sorted stored tables with begin-sorted table
// metadata — the deliberately pre-sorted half of the equivalence suite
// (the original spec is the unsorted half).
func (spec DBSpec) SortedByBegin() DBSpec {
	out := DBSpec{Dom: spec.Dom}
	for _, t := range spec.Tables {
		nt := Table{Name: t.Name, Schema: t.Schema, Facts: append([]Fact(nil), t.Facts...)}
		sort.SliceStable(nt.Facts, func(i, j int) bool { return nt.Facts[i].Iv.Begin < nt.Facts[j].Iv.Begin })
		out.Tables = append(out.Tables, nt)
	}
	return out
}

// ToSnapshotDB loads the spec into the abstract model.
func (spec DBSpec) ToSnapshotDB() *snapshot.DB[int64] {
	db := snapshot.NewDB[int64](semiring.N, spec.Dom)
	for _, t := range spec.Tables {
		r := db.CreateRelation(t.Name, t.Schema)
		for _, f := range t.Facts {
			r.AddPeriod(f.Iv, f.Tuple, f.Mult)
		}
	}
	return db
}

// ToPeriodDB loads the spec into the logical model.
func (spec DBSpec) ToPeriodDB() *period.DB[int64] {
	db := period.NewDB[int64](semiring.N, spec.Dom)
	for _, t := range spec.Tables {
		r := db.CreateRelation(t.Name, t.Schema)
		for _, f := range t.Facts {
			r.AddPeriod(f.Tuple, f.Iv, f.Mult)
		}
	}
	return db
}

// ToEngineDB loads the spec into the implementation layer as PERIODENC-
// encoded multiset tables.
func (spec DBSpec) ToEngineDB() *engine.DB {
	db := engine.NewDB(spec.Dom)
	for _, t := range spec.Tables {
		tbl := db.CreateTable(t.Name, t.Schema)
		for _, f := range t.Facts {
			tbl.Append(f.Tuple, f.Iv, f.Mult)
		}
	}
	return db
}

// GenQuery generates a random RA_agg query whose input tables are r and
// s. Positive subqueries all have schema (a, b); an aggregation, if any,
// appears at the root (mirroring the shape of the paper's workloads).
func (g *Gen) GenQuery() algebra.Query {
	q := g.genPositive(g.MaxDepth, true)
	switch g.R.Intn(4) {
	case 0:
		return algebra.Agg{
			GroupBy: []string{"a"},
			Aggs:    []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}},
			In:      q,
		}
	case 1:
		fn := []krel.AggFunc{krel.Sum, krel.Min, krel.Max, krel.Avg, krel.Count}[g.R.Intn(5)]
		return algebra.Agg{
			Aggs: []algebra.AggSpec{{Fn: fn, Arg: "b", As: "v"}, {Fn: krel.CountStar, As: "cnt"}},
			In:   q,
		}
	default:
		return q
	}
}

// GenDiffQuery generates a random query with a difference at the root —
// the dedicated generator of the difference equivalence grid, which
// must exercise the difference sweep on every iteration (GenQuery only
// reaches a difference by chance).
func (g *Gen) GenDiffQuery() algebra.Query {
	return algebra.Diff{
		L: g.genPositive(g.MaxDepth-1, true),
		R: g.genPositive(g.MaxDepth-1, true),
	}
}

// GenPositiveQuery generates a random RA+ query (no difference, no
// aggregation) — the fragment for which the legacy baselines are still
// snapshot-reducible (Table 1).
func (g *Gen) GenPositiveQuery() algebra.Query {
	return g.genPositive(g.MaxDepth, false)
}

// genPositive generates a query with output schema (a, b); with allowDiff
// it may contain difference (the full RA of Section 7.1).
func (g *Gen) genPositive(depth int, allowDiff bool) algebra.Query {
	if depth <= 0 {
		return g.baseRel()
	}
	switch g.R.Intn(7) {
	case 0:
		return g.baseRel()
	case 1:
		return algebra.Select{Pred: g.genPred(), In: g.genPositive(depth-1, allowDiff)}
	case 2:
		// Column permutation / computed projection, keeping schema (a, b).
		exprs := [][]algebra.NamedExpr{
			{{Name: "a", E: algebra.Col("b")}, {Name: "b", E: algebra.Col("a")}},
			{{Name: "a", E: algebra.Col("a")}, {Name: "b", E: algebra.Add(algebra.Col("b"), algebra.IntC(1))}},
			{{Name: "a", E: algebra.Col("a")}, {Name: "b", E: algebra.Col("a")}},
		}
		return algebra.Project{Exprs: exprs[g.R.Intn(len(exprs))], In: g.genPositive(depth-1, allowDiff)}
	case 3:
		// Equi-join on a, projecting back to (a, b).
		j := algebra.Join{
			L:    g.genPositive(depth-1, allowDiff),
			R:    g.genPositive(depth-1, allowDiff),
			Pred: algebra.Eq(algebra.Col("a"), algebra.Col("r.a")),
		}
		return algebra.Project{
			Exprs: []algebra.NamedExpr{
				{Name: "a", E: algebra.Col("a")},
				{Name: "b", E: algebra.Col("r.b")},
			},
			In: j,
		}
	case 4:
		return algebra.Union{L: g.genPositive(depth-1, allowDiff), R: g.genPositive(depth-1, allowDiff)}
	case 5:
		if allowDiff {
			return algebra.Diff{L: g.genPositive(depth-1, allowDiff), R: g.genPositive(depth-1, allowDiff)}
		}
		return algebra.Union{L: g.genPositive(depth-1, allowDiff), R: g.genPositive(depth-1, allowDiff)}
	default:
		return g.baseRel()
	}
}

func (g *Gen) baseRel() algebra.Query {
	if g.R.Intn(2) == 0 {
		return algebra.Rel{Name: "r"}
	}
	return algebra.Rel{Name: "s"}
}

func (g *Gen) genPred() algebra.Expr {
	col := []string{"a", "b"}[g.R.Intn(2)]
	val := algebra.IntC(int64(g.R.Intn(4)))
	switch g.R.Intn(4) {
	case 0:
		return algebra.Eq(algebra.Col(col), val)
	case 1:
		return algebra.Le(algebra.Col(col), val)
	case 2:
		return algebra.Gt(algebra.Col(col), val)
	default:
		return algebra.Ne(algebra.Col(col), val)
	}
}

// joinCat resolves the generated tables' schemas, so the join generator
// can draw column references from the schemas of the joins it builds.
var joinCat = algebra.MapCatalog{"r": twoColSchema, "s": twoColSchema}

// GenJoinQuery generates a random query aimed at the planner's join
// rules (selection pushdown, join-predicate absorption, OR-derived side
// predicates and column pruning): join trees over bare tables, whose
// colliding columns get "r."-prefixed names, and over renamed and
// narrowing projections; selections above the joins mixing side-only
// conjuncts, cross-side = and < conjuncts and OR-of-AND disjunctions
// over the NULL-bearing columns; and aggregation, difference or union
// over the joins. It is a separate method so the random streams of the
// other generators stay unchanged.
func (g *Gen) GenJoinQuery() algebra.Query {
	switch g.R.Intn(5) {
	case 0:
		return algebra.Union{L: g.joinBlock(), R: g.joinBlock()}
	case 1:
		return algebra.Diff{L: g.joinBlock(), R: g.joinBlock()}
	case 2:
		return algebra.Agg{
			GroupBy: []string{"a"},
			Aggs:    []algebra.AggSpec{{Fn: krel.Sum, Arg: "b", As: "v"}, {Fn: krel.CountStar, As: "cnt"}},
			In:      g.joinBlock(),
		}
	case 3:
		// count(*) directly over a join reads no input column.
		q, _ := g.filteredJoin()
		return algebra.Agg{Aggs: []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}, In: q}
	default:
		return g.joinBlock()
	}
}

// joinBlock is a filtered join projected to the schema (a, b).
func (g *Gen) joinBlock() algebra.Query {
	q, cols := g.filteredJoin()
	b := g.col(cols)
	if g.R.Intn(3) == 0 {
		b = algebra.Add(b, algebra.IntC(1))
	}
	return algebra.Project{Exprs: []algebra.NamedExpr{{Name: "a", E: g.col(cols)}, {Name: "b", E: b}}, In: q}
}

// filteredJoin returns a join tree under a selection of one to three
// conjuncts, and the join tree's column names.
func (g *Gen) filteredJoin() (algebra.Query, []string) {
	q := g.joinTree(2)
	s, err := algebra.OutSchema(q, joinCat)
	if err != nil {
		panic(err)
	}
	conj := make([]algebra.Expr, 1+g.R.Intn(3))
	for i := range conj {
		switch g.R.Intn(4) {
		case 0:
			conj[i] = algebra.Eq(g.col(s.Cols), g.col(s.Cols))
		case 1:
			conj[i] = algebra.Lt(g.col(s.Cols), g.col(s.Cols))
		case 2:
			conj[i] = g.atom(s.Cols)
		default:
			ds := make([]algebra.Expr, 2+g.R.Intn(2))
			for j := range ds {
				ds[j] = algebra.And(g.atom(s.Cols), g.atom(s.Cols))
			}
			conj[i] = algebra.Or(ds...)
		}
	}
	return algebra.Select{Pred: algebra.And(conj...), In: q}, s.Cols
}

// joinTree returns a left-deep join of up to depth+1 inputs, each join
// on TRUE (a cross product) or on a cross-side = or < comparison.
func (g *Gen) joinTree(depth int) algebra.Query {
	if depth == 0 || g.R.Intn(4) == 0 {
		return g.joinLeaf()
	}
	j := algebra.Join{L: g.joinTree(depth - 1), R: g.joinLeaf(), Pred: algebra.BoolC(true)}
	ls, err := algebra.OutSchema(j.L, joinCat)
	if err != nil {
		panic(err)
	}
	s, err := algebra.OutSchema(j, joinCat)
	if err != nil {
		panic(err)
	}
	if hasDuplicate(s.Cols) {
		// A third bare table would be renamed onto an existing "r." name,
		// which no executor accepts: rename this input instead.
		p := fmt.Sprintf("j%d.", depth)
		j.R = algebra.Project{Exprs: []algebra.NamedExpr{
			{Name: p + "a", E: algebra.Col("a")}, {Name: p + "b", E: algebra.Col("b")},
		}, In: g.baseRel()}
		if s, err = algebra.OutSchema(j, joinCat); err != nil {
			panic(err)
		}
	}
	l, r := g.col(s.Cols[:ls.Arity()]), g.col(s.Cols[ls.Arity():])
	switch g.R.Intn(3) {
	case 0:
		j.Pred = algebra.Eq(l, r)
	case 1:
		j.Pred = algebra.Lt(l, r)
	}
	return j
}

// joinLeaf is a bare table (columns a, b), a renamed projection of one
// (x.a, x.b), or a narrowing projection of one (b alone, or x.a with the
// computed x.c).
func (g *Gen) joinLeaf() algebra.Query {
	base := g.baseRel()
	p := []string{"x.", "y.", "z."}[g.R.Intn(3)]
	switch g.R.Intn(4) {
	case 0:
		return base
	case 1:
		return algebra.Project{Exprs: []algebra.NamedExpr{
			{Name: p + "a", E: algebra.Col("a")}, {Name: p + "b", E: algebra.Col("b")},
		}, In: base}
	case 2:
		return algebra.ProjectCols(base, "b")
	default:
		return algebra.Project{Exprs: []algebra.NamedExpr{
			{Name: p + "a", E: algebra.Col("a")}, {Name: p + "c", E: algebra.Add(algebra.Col("a"), algebra.Col("b"))},
		}, In: base}
	}
}

// atom is a comparison of a column with a small constant, or a NULL test.
func (g *Gen) atom(cols []string) algebra.Expr {
	c, v := g.col(cols), algebra.IntC(int64(g.R.Intn(4)))
	switch g.R.Intn(4) {
	case 0:
		return algebra.Eq(c, v)
	case 1:
		return algebra.Le(c, v)
	case 2:
		return algebra.Gt(c, v)
	default:
		return algebra.IsNullExpr{E: c}
	}
}

func (g *Gen) col(cols []string) algebra.Expr { return algebra.Col(cols[g.R.Intn(len(cols))]) }

func hasDuplicate(cols []string) bool {
	for i, c := range cols {
		for _, d := range cols[:i] {
			if c == d {
				return true
			}
		}
	}
	return false
}

// GenElisionQuery generates a random query whose root sweep — a grouped
// or global aggregation, or a difference — sits under zero to two
// layers of injective projections (every column kept, renamed and
// permuted, maybe next to a computed one), non-injective projections (a
// column dropped, or a single column mapped to a constant) and
// data-only selections: the shapes that decide whether the planner may
// drop the final coalesce. It is a separate method so the random
// streams of the other generators stay unchanged.
func (g *Gen) GenElisionQuery() algebra.Query {
	var q algebra.Query
	var cols []string
	switch g.R.Intn(3) {
	case 0:
		q = algebra.Agg{
			GroupBy: []string{"a"},
			Aggs:    []algebra.AggSpec{{Fn: krel.Sum, Arg: "b", As: "v"}, {Fn: krel.CountStar, As: "cnt"}},
			In:      g.genPositive(g.MaxDepth-2, true),
		}
		cols = []string{"a", "v", "cnt"}
	case 1:
		fn := []krel.AggFunc{krel.Sum, krel.Min, krel.Max, krel.Avg, krel.Count}[g.R.Intn(5)]
		q = algebra.Agg{Aggs: []algebra.AggSpec{{Fn: fn, Arg: "b", As: "v"}}, In: g.genPositive(g.MaxDepth-2, true)}
		cols = []string{"v"}
	default:
		q = algebra.Diff{L: g.genPositive(g.MaxDepth-2, true), R: g.genPositive(g.MaxDepth-2, true)}
		cols = []string{"a", "b"}
	}
	for layer := g.R.Intn(3); layer > 0; layer-- {
		switch g.R.Intn(3) {
		case 0:
			var exprs []algebra.NamedExpr
			for i, j := range g.R.Perm(len(cols)) {
				exprs = append(exprs, algebra.NamedExpr{Name: fmt.Sprintf("p%d_%d", layer, i), E: algebra.Col(cols[j])})
			}
			if g.R.Intn(2) == 0 {
				exprs = append(exprs, algebra.NamedExpr{Name: fmt.Sprintf("p%d_c", layer), E: algebra.Add(g.col(cols), algebra.IntC(1))})
			}
			q, cols = algebra.Project{Exprs: exprs, In: q}, namesOf(exprs)
		case 1:
			var exprs []algebra.NamedExpr
			if len(cols) == 1 {
				exprs = []algebra.NamedExpr{{Name: cols[0], E: algebra.Mul(algebra.Col(cols[0]), algebra.IntC(0))}}
			} else {
				drop := g.R.Intn(len(cols))
				for i, c := range cols {
					if i != drop {
						exprs = append(exprs, algebra.NamedExpr{Name: c, E: algebra.Col(c)})
					}
				}
			}
			q, cols = algebra.Project{Exprs: exprs, In: q}, namesOf(exprs)
		default:
			q = algebra.Select{Pred: g.atom(cols), In: q}
		}
	}
	return q
}

func namesOf(exprs []algebra.NamedExpr) []string {
	names := make([]string, len(exprs))
	for i, ne := range exprs {
		names[i] = ne.Name
	}
	return names
}
