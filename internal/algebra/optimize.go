package algebra

import (
	"slices"

	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// Optimize rewrites q into a snapshot-equivalent query by three groups
// of rules:
//
//   - Selection pushdown. Cascading selections merge, and selection
//     conjuncts distribute over union and difference (renamed to the
//     right input's columns), move through projections by expression
//     substitution, into the join side that can evaluate them, and below
//     aggregations when they only constrain grouping columns.
//   - Join-predicate absorption, σθ(L ⋈φ R) = L ⋈φ∧θ R: a conjunct that
//     needs both join sides joins the join predicate instead of filtering
//     the join's output, so the executors turn a cross-side equality into
//     a hash key. For a disjunction over both sides, each side receives
//     the predicate it implies — the OR over the disjuncts of each
//     disjunct's side-only conjuncts — while the disjunction itself stays
//     in the join predicate. This is sound under three-valued logic: if
//     the disjunction is true, some disjunct is true, and so are all of
//     its conjuncts. No side predicate is derived when some disjunct has
//     no conjunct on that side.
//   - Column pruning. Each projection keeps only the columns some
//     ancestor reads: predicates, join keys, grouping columns, aggregate
//     arguments and the query's output. Inputs of a union or difference
//     keep their full width, because those operators match rows on every
//     column. Under a join, a left column is kept whenever a kept right
//     column has the same name, so the "r."-prefixed names of the join's
//     output never change. A projection always keeps one column, so an
//     input read only by count(*) still carries its rows.
//
// All of these are bag-algebra identities and therefore — by
// snapshot-reducibility — also snapshot-semantics identities; the
// differential tests in rewrite verify Optimize(q) ≡ q on random
// databases against the per-snapshot oracle and the period-layer
// evaluator. rewrite.PlanQuery runs it on every query before the REWR
// reduction, so filters apply at the scans and narrow rows flow through
// the rewritten joins and aggregations. Schemas are derived once,
// bottom-up, before the rules run top-down.
func Optimize(q Query, cat Catalog) (Query, error) {
	sn, err := annotate(q, cat)
	if err != nil {
		return nil, err
	}
	return optimize(q, sn, nil, nil).q, nil
}

// colSet is a small set of column names; nil means every column.
type colSet []string

// add returns s with name added; adding to every column is a no-op.
func (s colSet) add(name string) colSet {
	if s == nil || slices.Contains(s, name) {
		return s
	}
	return append(s, name)
}

// addCols returns s with the columns e references added.
func (s colSet) addCols(e Expr) colSet {
	allCols(e, func(name string) bool { s = s.add(name); return true })
	return s
}

// planned is an optimized subtree: the query and keep, which maps each
// output column to its position in the subtree's unpruned schema (nil
// when nothing was pruned). Pruning never renames a column, so the
// output names are the unpruned schema's names at those positions.
type planned struct {
	q    Query
	keep []int
}

func (p planned) origPos(i int) int {
	if p.keep == nil {
		return i
	}
	return p.keep[i]
}

// cols returns p's output column names, given its unpruned schema s.
func (p planned) cols(s tuple.Schema) []string {
	if p.keep == nil {
		return s.Cols
	}
	cols := make([]string, len(p.keep))
	for i, k := range p.keep {
		cols[i] = s.Cols[k]
	}
	return cols
}

// filter places the conjuncts preds directly above p. It is not inlined,
// so the selection it builds takes no room in the recursive frames.
//
//go:noinline
func (p planned) filter(preds []Expr) planned {
	if len(preds) > 0 {
		p.q = Select{Pred: And(preds...), In: p.q}
	}
	return p
}

// optimize returns q (whose schemas sn holds) with the pending selection
// conjuncts preds pushed into it as deep as they go, narrowed so that the
// columns in need keep their names and meaning. The result may carry
// other columns as well.
//
// optimize and the optimizeX functions it recurses through keep their
// own stack frames small and leave the per-node analysis to helpers
// that return before the recursion: a query is planned on a goroutine
// stack that the runtime may have shrunk, and every frame live at the
// deepest point of the walk is copied when it grows again.
func optimize(q Query, sn *schemaNode, preds []Expr, need colSet) planned {
	switch q.(type) {
	case Select:
		return optimizeSelect(q, sn, preds, need)
	case Project:
		return optimizeProject(q, sn, preds, need)
	case Join:
		return optimizeJoin(q, sn, preds, need)
	case Union, Diff:
		return optimizeSetOp(q, sn, preds)
	case Agg:
		return optimizeAgg(q, sn, preds)
	default: // Rel
		return planned{q: q}.filter(preds)
	}
}

// optimizeSelect merges the selection into the pending conjuncts,
// σp(σq(x)) = σ(q ∧ p)(x), and keeps pushing.
func optimizeSelect(q Query, sn *schemaNode, preds []Expr, need colSet) planned {
	n := q.(Select)
	return optimize(n.In, sn.in[0], flatten(nil, n.Pred, OpAnd, preds...), need)
}

// optimizeProject pushes preds below the projection by substituting the
// output columns with their defining expressions, and drops the
// projection items no ancestor reads.
func optimizeProject(q Query, sn *schemaNode, preds []Expr, need colSet) planned {
	n := q.(Project)
	down, stay := pushThroughProject(n.Exprs, preds)
	exprs, keep, inNeed := narrowProject(n.Exprs, need, stay)
	in := optimize(n.In, sn.in[0], down, inNeed)
	return planned{q: Project{Exprs: exprs, In: in.q}, keep: keep}.filter(stay)
}

// pushThroughProject rewrites each conjunct of preds over the inputs of
// the projection exprs: σp(Π_E(x)) = Π_E(σ(p[E])(x)). Conjuncts that
// cannot be rewritten stay above.
func pushThroughProject(exprs []NamedExpr, preds []Expr) (down, stay []Expr) {
	def := func(name string) (Expr, bool) {
		for _, ne := range exprs {
			if ne.Name == name {
				return ne.E, true
			}
		}
		return nil, false
	}
	for _, p := range preds {
		if s, ok := substitute(p, def); ok {
			down = append(down, s)
		} else {
			stay = append(stay, p)
		}
	}
	return down, stay
}

// narrowProject keeps the projection items whose names need or the
// predicates stay (placed above the projection) read, at least one. It
// returns the kept items, their positions (nil when all are kept) and
// the columns they read from the input.
func narrowProject(exprs []NamedExpr, need colSet, stay []Expr) ([]NamedExpr, []int, colSet) {
	var keep []int
	if need != nil && len(exprs) > 1 {
		for _, p := range stay {
			need = need.addCols(p)
		}
		var kept []NamedExpr
		for i, ne := range exprs {
			if slices.Contains(need, ne.Name) {
				kept = append(kept, ne)
				keep = append(keep, i)
			}
		}
		switch len(kept) {
		case 0:
			exprs, keep = exprs[:1], []int{0}
		case len(exprs):
			keep = nil
		default:
			exprs = kept
		}
	}
	inNeed := make(colSet, 0, len(exprs))
	for _, ne := range exprs {
		inNeed = inNeed.addCols(ne.E)
	}
	return exprs, keep, inNeed
}

// optimizeJoin routes the conjuncts of preds and of the join predicate
// (routeJoin), splits need between the two inputs and narrows them.
func optimizeJoin(q Query, sn *schemaNode, preds []Expr, need colSet) planned {
	n := q.(Join)
	toL, toR, pred := routeJoin(n.Pred, sn, preds)
	if need != nil {
		need = need.addCols(pred)
		needL, needR := splitNeed(need, sn)
		r := optimize(n.R, sn.in[1], toR, needR)
		l := optimize(n.L, sn.in[0], toL, keepCollisions(needL, sn.in[0].s, r.cols(sn.in[1].s)))
		if out, ok := prunedJoin(l, r, pred, sn, need); ok {
			return out
		}
	}
	l := optimize(n.L, sn.in[0], toL, nil)
	r := optimize(n.R, sn.in[1], toR, nil)
	return planned{q: Join{L: l.q, R: r.q, Pred: pred}}
}

// routeJoin routes each conjunct of the join predicate and of preds to
// the join side that can evaluate it alone (toL, toR, in that side's
// column names), absorbs the rest into the join predicate pred, and adds
// to each side the predicate every cross-side disjunction implies there.
func routeJoin(joinPred Expr, sn *schemaNode, preds []Expr) (toL, toR []Expr, pred Expr) {
	ls, rs := sn.in[0].s, sn.in[1].s
	la := ls.Arity()
	left := func(c Expr) (Expr, bool) {
		return c, allCols(c, func(name string) bool { return ls.Index(name) >= 0 })
	}
	// A join-output column maps back to the right input's column of the
	// same position, unless that name resolves elsewhere in the input.
	rightCol := func(name string) (Expr, bool) {
		i := sn.s.Index(name) - la
		if i < 0 || rs.Index(rs.Cols[i]) != i {
			return nil, false
		}
		return Col(rs.Cols[i]), true
	}
	right := func(c Expr) (Expr, bool) { return substitute(c, rightCol) }
	var rest []Expr
	for _, c := range flatten(nil, joinPred, OpAnd, preds...) {
		if k, ok := c.(Const); ok && Truthy(k.Val) {
			continue // the TRUE of a comma join
		}
		if lc, ok := left(c); ok {
			toL = append(toL, lc)
		} else if rc, ok := right(c); ok {
			toR = append(toR, rc)
		} else {
			rest = append(rest, c)
		}
	}
	for _, c := range rest {
		if d, ok := implied(c, left); ok {
			toL = append(toL, d)
		}
		if d, ok := implied(c, right); ok {
			toR = append(toR, d)
		}
	}
	return toL, toR, And(rest...)
}

// splitNeed maps the join-output columns in need to the input columns
// they come from.
func splitNeed(need colSet, sn *schemaNode) (needL, needR colSet) {
	ls, rs := sn.in[0].s, sn.in[1].s
	needL, needR = make(colSet, 0, len(need)), make(colSet, 0, len(need))
	for _, name := range need {
		switch i := sn.s.Index(name); {
		case i < 0:
		case i < ls.Arity():
			needL = needL.add(ls.Cols[i])
		default:
			needR = needR.add(rs.Cols[i-ls.Arity()])
		}
	}
	return needL, needR
}

// keepCollisions adds to needL every left column named like a column
// the right input r keeps: the right column's "r."-prefixed name in the
// join output depends on it.
func keepCollisions(needL colSet, ls tuple.Schema, r []string) colSet {
	for _, c := range r {
		if ls.Index(c) >= 0 {
			needL = needL.add(c)
		}
	}
	return needL
}

// prunedJoin joins the narrowed inputs l and r. It reports false when
// narrowing changed a join-output name (possible only for inputs that
// themselves carry "r."-prefixed names) or lost a column in need; the
// caller then narrows neither input.
func prunedJoin(l, r planned, pred Expr, sn *schemaNode, need colSet) (planned, bool) {
	out := planned{q: Join{L: l.q, R: r.q, Pred: pred}}
	if l.keep == nil && r.keep == nil {
		return out, true
	}
	ls, rs := sn.in[0].s, sn.in[1].s
	lcols := l.cols(ls)
	joined := tuple.Schema{Cols: lcols}.Concat(tuple.Schema{Cols: r.cols(rs)}, "r.")
	out.keep = make([]int, joined.Arity())
	for i := range out.keep {
		if i < len(lcols) {
			out.keep[i] = l.origPos(i)
		} else {
			out.keep[i] = ls.Arity() + r.origPos(i-len(lcols))
		}
		if joined.Cols[i] != sn.s.Cols[out.keep[i]] {
			return planned{}, false
		}
	}
	for _, name := range need {
		if o := sn.s.Index(name); o >= 0 {
			if i := joined.Index(name); i < 0 || out.keep[i] != o {
				return planned{}, false
			}
		}
	}
	return out, true
}

// optimizeSetOp pushes preds into both inputs of a union or difference
// op, renaming the output columns (the left input's names) to the right
// input's columns of the same position. Conjuncts that cannot be renamed
// stay above the operator. Neither input is narrowed.
//
// For the difference, σθ(L − R) = σθ(L) − σθ(R) holds for the monus
// because θ(t) is 0K-or-1K per tuple and multiplication distributes over
// monus on these values.
func optimizeSetOp(op Query, sn *schemaNode, preds []Expr) planned {
	toL, toR, stay := renameRight(sn.in[0].s, sn.in[1].s, preds)
	if u, ok := op.(Union); ok {
		op = Union{L: optimize(u.L, sn.in[0], toL, nil).q, R: optimize(u.R, sn.in[1], toR, nil).q}
	} else {
		d := op.(Diff)
		op = Diff{L: optimize(d.L, sn.in[0], toL, nil).q, R: optimize(d.R, sn.in[1], toR, nil).q}
	}
	return planned{q: op}.filter(stay)
}

// renameRight returns the conjuncts of preds that can be renamed from
// the columns of ls to those of rs at the same position, both as given
// (toL) and renamed (toR), and the rest.
func renameRight(ls, rs tuple.Schema, preds []Expr) (toL, toR, stay []Expr) {
	rightCol := func(name string) (Expr, bool) {
		i := ls.Index(name)
		if i < 0 || rs.Index(rs.Cols[i]) != i {
			return nil, false
		}
		return Col(rs.Cols[i]), true
	}
	for _, p := range preds {
		if rp, ok := substitute(p, rightCol); ok {
			toL = append(toL, p)
			toR = append(toR, rp)
		} else {
			stay = append(stay, p)
		}
	}
	return toL, toR, stay
}

// optimizeAgg pushes the conjuncts that only constrain grouping columns
// below the aggregation and narrows its input to the grouping columns and
// aggregate arguments.
func optimizeAgg(q Query, sn *schemaNode, preds []Expr) planned {
	n := q.(Agg)
	down, stay := pushBelowAgg(n.GroupBy, preds)
	in := optimize(n.In, sn.in[0], down, aggNeed(n, sn.in[0].s))
	return planned{q: Agg{GroupBy: n.GroupBy, Aggs: n.Aggs, In: in.q}}.filter(stay)
}

// pushBelowAgg splits preds into the conjuncts that may move below an
// aggregation grouped on groupBy and those that stay above it.
func pushBelowAgg(groupBy []string, preds []Expr) (down, stay []Expr) {
	for _, c := range preds {
		// A conjunct may only move below the aggregation if it
		// references at least one column and all of them are grouping
		// columns. Column-free conjuncts (e.g. FALSE) must stay above:
		// pushing them below a global aggregation would turn "no
		// result rows" into a gap row (count 0).
		refs := 0
		ok := allCols(c, func(name string) bool {
			refs++
			return slices.Contains(groupBy, name)
		})
		if ok && refs > 0 {
			down = append(down, c)
		} else {
			stay = append(stay, c)
		}
	}
	return down, stay
}

// aggNeed is the input columns an aggregation reads: its grouping
// columns and aggregate arguments, or the first input column when it
// reads none (count(*) alone), so the input keeps its rows.
func aggNeed(n Agg, in tuple.Schema) colSet {
	need := make(colSet, 0, len(n.GroupBy)+len(n.Aggs))
	for _, g := range n.GroupBy {
		need = need.add(g)
	}
	for _, a := range n.Aggs {
		if a.Fn != krel.CountStar {
			need = need.add(a.Arg)
		}
	}
	if len(need) == 0 && in.Arity() > 0 {
		need = need.add(in.Cols[0])
	}
	return need
}

// implied derives the predicate a disjunction implies on one join side:
// the OR, over its disjuncts, of the conjuncts of that disjunct that side
// can evaluate alone (side returns them in the side's column names). It
// derives nothing when e is not a disjunction or some disjunct has no
// such conjunct.
func implied(e Expr, side func(Expr) (Expr, bool)) (Expr, bool) {
	if b, ok := e.(BinOp); !ok || b.Op != OpOr {
		return nil, false
	}
	ds := flatten(nil, e, OpOr)
	out := make([]Expr, len(ds))
	for i, d := range ds {
		var own []Expr
		for _, c := range conjuncts(d) {
			if sc, ok := side(c); ok {
				own = append(own, sc)
			}
		}
		if len(own) == 0 {
			return nil, false
		}
		out[i] = And(own...)
	}
	return Or(out...), true
}

// conjuncts flattens a predicate's top-level AND tree.
func conjuncts(e Expr) []Expr { return flatten(nil, e, OpAnd) }

// flatten appends to dst the operands of e's top-level tree of op (AND
// or OR), then more.
func flatten(dst []Expr, e Expr, op BinOpKind, more ...Expr) []Expr {
	if b, ok := e.(BinOp); ok && b.Op == op {
		dst = flatten(dst, b.L, op)
		dst = flatten(dst, b.R, op)
	} else {
		dst = append(dst, e)
	}
	return append(dst, more...)
}

// allCols reports whether every column reference in e satisfies ok.
func allCols(e Expr, ok func(string) bool) bool {
	switch n := e.(type) {
	case ColRef:
		return ok(n.Name)
	case Const:
		return true
	case Not:
		return allCols(n.E, ok)
	case IsNullExpr:
		return allCols(n.E, ok)
	case BinOp:
		return allCols(n.L, ok) && allCols(n.R, ok)
	default:
		return false
	}
}

// substitute replaces column references by the expressions m maps them
// to; it fails (ok=false) if a referenced column has no mapping.
func substitute(e Expr, m func(string) (Expr, bool)) (Expr, bool) {
	switch n := e.(type) {
	case ColRef:
		return m(n.Name)
	case Const:
		return n, true
	case Not:
		s, ok := substitute(n.E, m)
		if !ok {
			return nil, false
		}
		return Not{E: s}, true
	case IsNullExpr:
		s, ok := substitute(n.E, m)
		if !ok {
			return nil, false
		}
		return IsNullExpr{E: s}, true
	case BinOp:
		l, ok := substitute(n.L, m)
		if !ok {
			return nil, false
		}
		r, ok := substitute(n.R, m)
		if !ok {
			return nil, false
		}
		return BinOp{Op: n.Op, L: l, R: r}, true
	default:
		return nil, false
	}
}

// CountSelectsBelowJoins reports how many Select nodes sit strictly below
// a Join in q — a structural measure of pushdown effectiveness used by
// tests and the ablation output.
func CountSelectsBelowJoins(q Query) int {
	count := 0
	var walk func(n Query, belowJoin bool)
	walk = func(n Query, belowJoin bool) {
		switch x := n.(type) {
		case Select:
			if belowJoin {
				count++
			}
			walk(x.In, belowJoin)
		case Project:
			walk(x.In, belowJoin)
		case Join:
			walk(x.L, true)
			walk(x.R, true)
		case Union:
			walk(x.L, belowJoin)
			walk(x.R, belowJoin)
		case Diff:
			walk(x.L, belowJoin)
			walk(x.R, belowJoin)
		case Agg:
			walk(x.In, belowJoin)
		}
	}
	walk(q, false)
	return count
}
