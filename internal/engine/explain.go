package engine

import (
	"fmt"
	"strings"

	"snapk/internal/tuple"
)

// This file is the static EXPLAIN side of the observability layer: a
// plan walker producing a tree isomorphic to the physical plan (one
// ExplainNode per plan node, children in input order), annotated with
// everything the planner decided — estimated rows and operator
// strategy. Parallel fragment/exchange placement is
// filled in by parallel.AnnotatePlacement, which mirrors the executor's
// build() branching over the same tree; the runtime counters of EXPLAIN
// ANALYZE live in obs.go.

// ExplainNode is one operator of an EXPLAIN tree.
type ExplainNode struct {
	// Op names the operator; Detail carries its static annotation
	// (predicate summary, table name, join strategy).
	Op     string
	Detail string
	// EstRows is the statically known output cardinality, -1 when the
	// planner cannot bound it.
	EstRows int64
	// Placement describes parallel execution placement ("morsel scan ×4",
	// "sequential", "fragments ×4 via partition"); filled by
	// parallel.AnnotatePlacement, empty for purely sequential EXPLAIN.
	Placement string
	Children  []*ExplainNode
}

// ExplainPlan renders p as an annotated EXPLAIN tree. The tree is
// isomorphic to the plan (one node per plan node, children in L,R /
// input order), which parallel.AnnotatePlacement relies on.
func (db *DB) ExplainPlan(p Plan) *ExplainNode {
	n := &ExplainNode{EstRows: db.EstimateRows(p)}
	switch t := p.(type) {
	case ScanP:
		n.Op, n.Detail = "Scan", t.Name
	case FilterP:
		n.Op, n.Detail = "Filter", t.Pred.String()
		n.Children = []*ExplainNode{db.ExplainPlan(t.In)}
	case ProjectP:
		parts := make([]string, len(t.Exprs))
		for i, ne := range t.Exprs {
			parts[i] = ne.Name
		}
		n.Op, n.Detail = "Project", strings.Join(parts, ",")
		n.Children = []*ExplainNode{db.ExplainPlan(t.In)}
	case JoinP:
		n.Op = "Join"
		n.Detail = db.explainJoinDetail(t)
		n.Children = []*ExplainNode{db.ExplainPlan(t.L), db.ExplainPlan(t.R)}
	case UnionP:
		n.Op = "UnionAll"
		n.Children = []*ExplainNode{db.ExplainPlan(t.L), db.ExplainPlan(t.R)}
	case DiffP:
		n.Op = "Diff"
		n.Children = []*ExplainNode{db.ExplainPlan(t.L), db.ExplainPlan(t.R)}
	case AggP:
		n.Op = "Agg"
		n.Detail = fmt.Sprintf("group_by=%v", t.GroupBy)
		if t.PreAgg {
			n.Detail += " pre-agg"
		}
		n.Children = []*ExplainNode{db.ExplainPlan(t.In)}
	case CoalesceP:
		n.Op = "Coalesce"
		n.Children = []*ExplainNode{db.ExplainPlan(t.In)}
	case SortP:
		n.Op, n.Detail = "Sort", "endpoint enforcer"
		n.Children = []*ExplainNode{db.ExplainPlan(t.In)}
	case WindowP:
		n.Op, n.Detail = "Window", t.T.String()
		if t.Prune {
			n.Detail += " prune"
		}
		n.Children = []*ExplainNode{db.ExplainPlan(t.In)}
	default:
		n.Op = fmt.Sprintf("%T", p)
	}
	return n
}

// explainJoinDetail reports the join strategy the executors will pick:
// hash join with its build side, or the interval-overlap sweep fallback
// when the predicate has no equality conjunct. Schema errors (unknown
// table, unknown column) degrade to the bare predicate — EXPLAIN never
// fails on a plan the executor would reject with a better error.
func (db *DB) explainJoinDetail(t JoinP) string {
	lData, lErr := db.PlanDataSchema(t.L)
	rData, rErr := db.PlanDataSchema(t.R)
	if lErr != nil || rErr != nil {
		return t.Pred.String()
	}
	prep, err := PrepareJoin(lData, rData, t.Pred)
	if err != nil {
		return t.Pred.String()
	}
	strategy := "overlap-sweep"
	if prep.HasEquiKey() {
		// A planner-pinned build side wins over the executors' own
		// estimate-based pick — EXPLAIN reports what will actually run.
		var buildLeft bool
		switch t.Build {
		case BuildLeftSide:
			buildLeft = true
		case BuildRightSide:
			buildLeft = false
		default:
			buildLeft = BuildLeftSmaller(db.EstimateRows(t.L), db.EstimateRows(t.R))
		}
		if buildLeft {
			strategy = "hash build=left"
		} else {
			strategy = "hash build=right"
		}
	}
	return fmt.Sprintf("%s, on %s", strategy, t.Pred)
}

// PlanDataSchema derives the data schema (period attributes excluded)
// of a plan's output without executing it — the static input PrepareJoin
// needs for strategy reporting.
func (db *DB) PlanDataSchema(p Plan) (tuple.Schema, error) {
	switch t := p.(type) {
	case ScanP:
		return db.RelationSchema(t.Name)
	case FilterP:
		return db.PlanDataSchema(t.In)
	case ProjectP:
		cols := make([]string, len(t.Exprs))
		for i, ne := range t.Exprs {
			cols[i] = ne.Name
		}
		return tuple.NewSchema(cols...), nil
	case JoinP:
		l, err := db.PlanDataSchema(t.L)
		if err != nil {
			return tuple.Schema{}, err
		}
		r, err := db.PlanDataSchema(t.R)
		if err != nil {
			return tuple.Schema{}, err
		}
		return l.Concat(r, "r."), nil
	case UnionP:
		return db.PlanDataSchema(t.L)
	case DiffP:
		return db.PlanDataSchema(t.L)
	case AggP:
		in, err := db.PlanDataSchema(t.In)
		if err != nil {
			return tuple.Schema{}, err
		}
		// Aggregating an empty relation resolves the output schema with
		// the same column rules the executor applies.
		out, err := TemporalAggregate(&Table{Schema: PeriodSchema(in)}, t.GroupBy, t.Aggs, t.PreAgg, db.dom)
		if err != nil {
			return tuple.Schema{}, err
		}
		return out.DataSchema(), nil
	case CoalesceP:
		return db.PlanDataSchema(t.In)
	case SortP:
		return db.PlanDataSchema(t.In)
	case WindowP:
		return db.PlanDataSchema(t.In)
	default:
		return tuple.Schema{}, fmt.Errorf("engine: unknown plan node %T", p)
	}
}

// Render returns the EXPLAIN tree as indented text, one operator per
// line with its annotations.
func (n *ExplainNode) Render() string {
	var b strings.Builder
	renderExplain(&b, n, "", true, true)
	return b.String()
}

func renderExplain(b *strings.Builder, n *ExplainNode, prefix string, last, root bool) {
	if !root {
		if last {
			b.WriteString(prefix + "└─ ")
			prefix += "   "
		} else {
			b.WriteString(prefix + "├─ ")
			prefix += "│  "
		}
	}
	b.WriteString(n.line())
	b.WriteByte('\n')
	for i, c := range n.Children {
		renderExplain(b, c, prefix, i == len(n.Children)-1, false)
	}
}

func (n *ExplainNode) line() string {
	var b strings.Builder
	b.WriteString(n.Op)
	if n.Detail != "" {
		fmt.Fprintf(&b, " [%s]", n.Detail)
	}
	if n.EstRows >= 0 {
		fmt.Fprintf(&b, " est_rows=%d", n.EstRows)
	}
	if n.Placement != "" {
		fmt.Fprintf(&b, "  {%s}", n.Placement)
	}
	return b.String()
}
