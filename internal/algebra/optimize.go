package algebra

import "fmt"

// Optimize rewrites q into a snapshot-equivalent query with selections
// pushed toward the base relations: cascading selections are merged, and
// selection predicates distribute over union and difference, move through
// projections by expression substitution, into the applicable side of a
// join (conjunct by conjunct), and below aggregations when they only
// constrain grouping columns.
//
// All transformations are bag-algebra identities and therefore — by
// snapshot-reducibility — also snapshot-semantics identities; the
// differential tests in rewrite verify Optimize(q) ≡ q on random
// databases against the per-snapshot oracle. rewrite.PlanQuery runs it
// on every query before the REWR reduction, so filters apply at the
// scans instead of above the rewritten joins and aggregations.
func Optimize(q Query, cat Catalog) (Query, error) {
	if _, err := OutSchema(q, cat); err != nil {
		return nil, err
	}
	return optimize(q, cat)
}

func optimize(q Query, cat Catalog) (Query, error) {
	switch n := q.(type) {
	case Rel:
		return n, nil
	case Select:
		in, err := optimize(n.In, cat)
		if err != nil {
			return nil, err
		}
		return pushSelect(n.Pred, in, cat)
	case Project:
		in, err := optimize(n.In, cat)
		if err != nil {
			return nil, err
		}
		return Project{Exprs: n.Exprs, In: in}, nil
	case Join:
		l, err := optimize(n.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := optimize(n.R, cat)
		if err != nil {
			return nil, err
		}
		return Join{L: l, R: r, Pred: n.Pred}, nil
	case Union:
		l, err := optimize(n.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := optimize(n.R, cat)
		if err != nil {
			return nil, err
		}
		return Union{L: l, R: r}, nil
	case Diff:
		l, err := optimize(n.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := optimize(n.R, cat)
		if err != nil {
			return nil, err
		}
		return Diff{L: l, R: r}, nil
	case Agg:
		in, err := optimize(n.In, cat)
		if err != nil {
			return nil, err
		}
		return Agg{GroupBy: n.GroupBy, Aggs: n.Aggs, In: in}, nil
	default:
		return nil, fmt.Errorf("algebra: unknown query node %T", q)
	}
}

// pushSelect pushes the predicate as deep as possible into in (already
// optimized) and returns the resulting query.
func pushSelect(pred Expr, in Query, cat Catalog) (Query, error) {
	switch n := in.(type) {
	case Select:
		// σp(σq(x)) = σ(p ∧ q)(x): merge and retry as one selection.
		return pushSelect(And(n.Pred, pred), n.In, cat)
	case Union:
		l, err := pushSelect(pred, n.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := pushSelect(pred, n.R, cat)
		if err != nil {
			return nil, err
		}
		return Union{L: l, R: r}, nil
	case Diff:
		// σθ(L − R) = σθ(L) − σθ(R) holds for the monus because θ(t) is
		// 0K-or-1K per tuple and multiplication distributes over monus on
		// these values.
		l, err := pushSelect(pred, n.L, cat)
		if err != nil {
			return nil, err
		}
		r, err := pushSelect(pred, n.R, cat)
		if err != nil {
			return nil, err
		}
		return Diff{L: l, R: r}, nil
	case Project:
		// σp(Π_E(x)) = Π_E(σ(p[E])(x)): substitute output columns by
		// their defining expressions.
		subst := make(map[string]Expr, len(n.Exprs))
		for _, ne := range n.Exprs {
			subst[ne.Name] = ne.E
		}
		rewritten, ok := substitute(pred, subst)
		if !ok {
			return Select{Pred: pred, In: n}, nil
		}
		pushed, err := pushSelect(rewritten, n.In, cat)
		if err != nil {
			return nil, err
		}
		return Project{Exprs: n.Exprs, In: pushed}, nil
	case Join:
		return pushSelectJoin(pred, n, cat)
	case Agg:
		// Push conjuncts that only constrain grouping columns.
		groupSet := map[string]bool{}
		for _, g := range n.GroupBy {
			groupSet[g] = true
		}
		var pushable, rest []Expr
		for _, c := range conjuncts(pred) {
			// A conjunct may only move below the aggregation if it
			// references at least one column and all of them are grouping
			// columns. Column-free conjuncts (e.g. FALSE) must stay above:
			// pushing them below a global aggregation would turn "no
			// result rows" into a gap row (count 0).
			refs := 0
			ok := allCols(c, func(name string) bool { refs++; return groupSet[name] })
			if ok && refs > 0 {
				pushable = append(pushable, c)
			} else {
				rest = append(rest, c)
			}
		}
		out := in
		if len(pushable) > 0 {
			pushed, err := pushSelect(And(pushable...), n.In, cat)
			if err != nil {
				return nil, err
			}
			out = Agg{GroupBy: n.GroupBy, Aggs: n.Aggs, In: pushed}
		}
		if len(rest) > 0 {
			out = Select{Pred: And(rest...), In: out}
		}
		return out, nil
	default:
		return Select{Pred: pred, In: in}, nil
	}
}

// pushSelectJoin routes each conjunct of pred to the join side whose
// schema covers all of its columns, keeping the remainder above the join.
func pushSelectJoin(pred Expr, j Join, cat Catalog) (Query, error) {
	ls, err := OutSchema(j.L, cat)
	if err != nil {
		return nil, err
	}
	rs, err := OutSchema(j.R, cat)
	if err != nil {
		return nil, err
	}
	joined := ls.Concat(rs, "r.")
	// Map join-output column names back to right-side column names.
	rightName := make(map[string]string, rs.Arity())
	for i, c := range rs.Cols {
		rightName[joined.Cols[ls.Arity()+i]] = c
	}
	leftSet := map[string]bool{}
	for _, c := range ls.Cols {
		leftSet[c] = true
	}
	// A column name may exist on the left AND map to the right (it is
	// then the left column in the joined schema).
	var toL, toR, rest []Expr
	for _, c := range conjuncts(pred) {
		switch {
		case allCols(c, func(name string) bool { return leftSet[name] }):
			toL = append(toL, c)
		case allCols(c, func(name string) bool { _, ok := rightName[name]; return ok && !leftSet[name] }):
			subst := make(map[string]Expr, len(rightName))
			for out, orig := range rightName {
				subst[out] = Col(orig)
			}
			rc, ok := substitute(c, subst)
			if !ok {
				rest = append(rest, c)
				continue
			}
			toR = append(toR, rc)
		default:
			rest = append(rest, c)
		}
	}
	l := j.L
	if len(toL) > 0 {
		pushed, err := pushSelect(And(toL...), j.L, cat)
		if err != nil {
			return nil, err
		}
		l = pushed
	}
	r := j.R
	if len(toR) > 0 {
		pushed, err := pushSelect(And(toR...), j.R, cat)
		if err != nil {
			return nil, err
		}
		r = pushed
	}
	var out Query = Join{L: l, R: r, Pred: j.Pred}
	if len(rest) > 0 {
		out = Select{Pred: And(rest...), In: out}
	}
	return out, nil
}

// conjuncts flattens a predicate's top-level AND tree.
func conjuncts(e Expr) []Expr {
	if b, ok := e.(BinOp); ok && b.Op == OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []Expr{e}
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

// substitute replaces column references by the mapped expressions; it
// fails (ok=false) if a referenced column has no mapping.
func substitute(e Expr, m map[string]Expr) (Expr, bool) {
	switch n := e.(type) {
	case ColRef:
		r, ok := m[n.Name]
		return r, ok
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
