package algebra

import (
	"fmt"
	"strings"

	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// Query is a node of the RA_agg query tree. Queries are independent of
// the model layer: the abstract oracle, the logical evaluator and the
// rewritten engine plans all interpret the same tree.
type Query interface {
	queryNode()
	String() string
}

// Rel scans a base relation by catalog name.
type Rel struct{ Name string }

// Select filters tuples by a boolean predicate (σ_θ).
type Select struct {
	Pred Expr
	In   Query
}

// NamedExpr is a projection item: an expression with an output column name.
type NamedExpr struct {
	Name string
	E    Expr
}

// Project evaluates projection expressions (Π_A, duplicate-preserving:
// annotations of colliding tuples are summed).
type Project struct {
	Exprs []NamedExpr
	In    Query
}

// Join is an inner θ-join. The output schema is the concatenation of both
// input schemas with right-side collisions prefixed "r."; the predicate
// is evaluated over the concatenated tuple.
type Join struct {
	L, R Query
	Pred Expr
}

// Union is bag union (UNION ALL); inputs must be union-compatible.
type Union struct{ L, R Query }

// Diff is monus difference (EXCEPT ALL under ℕ); inputs must be
// union-compatible.
type Diff struct{ L, R Query }

// AggSpec is one aggregation function application. Arg is the input
// column; it is ignored for count(*).
type AggSpec struct {
	Fn  krel.AggFunc
	Arg string
	As  string
}

// Agg groups the input on the GroupBy columns and evaluates every AggSpec
// (Def 7.1, extended to several aggregation functions per grouping). The
// output schema is GroupBy columns followed by one column per spec.
type Agg struct {
	GroupBy []string
	Aggs    []AggSpec
	In      Query
}

func (Rel) queryNode()     {}
func (Select) queryNode()  {}
func (Project) queryNode() {}
func (Join) queryNode()    {}
func (Union) queryNode()   {}
func (Diff) queryNode()    {}
func (Agg) queryNode()     {}

func (q Rel) String() string    { return q.Name }
func (q Select) String() string { return fmt.Sprintf("σ[%s](%s)", q.Pred, q.In) }
func (q Project) String() string {
	parts := make([]string, len(q.Exprs))
	for i, ne := range q.Exprs {
		parts[i] = fmt.Sprintf("%s→%s", ne.E, ne.Name)
	}
	return fmt.Sprintf("Π[%s](%s)", strings.Join(parts, ", "), q.In)
}
func (q Join) String() string  { return fmt.Sprintf("(%s ⋈[%s] %s)", q.L, q.Pred, q.R) }
func (q Union) String() string { return fmt.Sprintf("(%s ∪ %s)", q.L, q.R) }
func (q Diff) String() string  { return fmt.Sprintf("(%s − %s)", q.L, q.R) }
func (q Agg) String() string {
	parts := make([]string, len(q.Aggs))
	for i, a := range q.Aggs {
		if a.Fn == krel.CountStar {
			parts[i] = fmt.Sprintf("count(*)→%s", a.As)
		} else {
			parts[i] = fmt.Sprintf("%s(%s)→%s", a.Fn, a.Arg, a.As)
		}
	}
	return fmt.Sprintf("γ[%s; %s](%s)", strings.Join(q.GroupBy, ","), strings.Join(parts, ", "), q.In)
}

// ProjectCols is a convenience constructor projecting the named columns
// unchanged.
func ProjectCols(in Query, cols ...string) Project {
	exprs := make([]NamedExpr, len(cols))
	for i, c := range cols {
		exprs[i] = NamedExpr{Name: c, E: Col(c)}
	}
	return Project{Exprs: exprs, In: in}
}

// Catalog resolves base-relation names to their (non-temporal) schemas.
type Catalog interface {
	RelationSchema(name string) (tuple.Schema, error)
}

// MapCatalog is a Catalog backed by a map.
type MapCatalog map[string]tuple.Schema

// RelationSchema implements Catalog.
func (c MapCatalog) RelationSchema(name string) (tuple.Schema, error) {
	s, ok := c[name]
	if !ok {
		return tuple.Schema{}, fmt.Errorf("algebra: unknown relation %q", name)
	}
	return s, nil
}

// OutSchema computes the output schema of a query against a catalog,
// validating column references along the way. Every evaluator derives
// its result schema from this single implementation so all three model
// layers agree on output shape.
func OutSchema(q Query, cat Catalog) (tuple.Schema, error) {
	n, err := annotate(q, cat)
	if err != nil {
		return tuple.Schema{}, err
	}
	return n.s, nil
}

// schemaNode is the output schema of one query node together with the
// schema nodes of its inputs (in[1] is set for binary operators only).
type schemaNode struct {
	s  tuple.Schema
	in [2]*schemaNode
}

// annotate derives the schema of every node of q in one bottom-up walk,
// validating column references; Optimize reads its inputs' schemas from
// the result instead of re-deriving them per node.
func annotate(q Query, cat Catalog) (*schemaNode, error) {
	switch n := q.(type) {
	case Rel:
		s, err := cat.RelationSchema(n.Name)
		if err != nil {
			return nil, err
		}
		return &schemaNode{s: s}, nil
	case Select:
		in, err := annotate(n.In, cat)
		if err != nil {
			return nil, err
		}
		if err := resolve(n.Pred, in.s); err != nil {
			return nil, err
		}
		return &schemaNode{s: in.s, in: [2]*schemaNode{in}}, nil
	case Project:
		in, err := annotate(n.In, cat)
		if err != nil {
			return nil, err
		}
		cols := make([]string, len(n.Exprs))
		for i, ne := range n.Exprs {
			if err := resolve(ne.E, in.s); err != nil {
				return nil, err
			}
			cols[i] = ne.Name
		}
		return &schemaNode{s: tuple.NewSchema(cols...), in: [2]*schemaNode{in}}, nil
	case Join:
		l, r, err := annotate2(n.L, n.R, cat)
		if err != nil {
			return nil, err
		}
		out := l.s.Concat(r.s, "r.")
		if err := resolve(n.Pred, out); err != nil {
			return nil, err
		}
		return &schemaNode{s: out, in: [2]*schemaNode{l, r}}, nil
	case Union:
		return annotateSetOp(n.L, n.R, cat)
	case Diff:
		return annotateSetOp(n.L, n.R, cat)
	case Agg:
		in, err := annotate(n.In, cat)
		if err != nil {
			return nil, err
		}
		cols := make([]string, 0, len(n.GroupBy)+len(n.Aggs))
		for _, g := range n.GroupBy {
			if in.s.Index(g) < 0 {
				return nil, fmt.Errorf("algebra: unknown group-by column %q", g)
			}
			cols = append(cols, g)
		}
		for _, a := range n.Aggs {
			if a.Fn != krel.CountStar && in.s.Index(a.Arg) < 0 {
				return nil, fmt.Errorf("algebra: unknown aggregation column %q", a.Arg)
			}
			cols = append(cols, a.As)
		}
		return &schemaNode{s: tuple.NewSchema(cols...), in: [2]*schemaNode{in}}, nil
	default:
		return nil, fmt.Errorf("algebra: unknown query node %T", q)
	}
}

func annotate2(l, r Query, cat Catalog) (*schemaNode, *schemaNode, error) {
	ln, err := annotate(l, cat)
	if err != nil {
		return nil, nil, err
	}
	rn, err := annotate(r, cat)
	if err != nil {
		return nil, nil, err
	}
	return ln, rn, nil
}

// annotateSetOp annotates a union or difference: the inputs must have
// equal arity, and the output takes the left input's column names.
func annotateSetOp(l, r Query, cat Catalog) (*schemaNode, error) {
	ln, rn, err := annotate2(l, r, cat)
	if err != nil {
		return nil, err
	}
	if ln.s.Arity() != rn.s.Arity() {
		return nil, fmt.Errorf("algebra: union-incompatible arities %d and %d", ln.s.Arity(), rn.s.Arity())
	}
	return &schemaNode{s: ln.s, in: [2]*schemaNode{ln, rn}}, nil
}

// Walk visits q and all of its descendants in pre-order.
func Walk(q Query, visit func(Query)) {
	visit(q)
	switch n := q.(type) {
	case Select:
		Walk(n.In, visit)
	case Project:
		Walk(n.In, visit)
	case Join:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case Union:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case Diff:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case Agg:
		Walk(n.In, visit)
	}
}

// BaseRelations returns the distinct base-relation names referenced by q,
// in first-use order.
func BaseRelations(q Query) []string {
	var names []string
	seen := map[string]struct{}{}
	Walk(q, func(n Query) {
		if r, ok := n.(Rel); ok {
			if _, dup := seen[r.Name]; !dup {
				seen[r.Name] = struct{}{}
				names = append(names, r.Name)
			}
		}
	})
	return names
}
