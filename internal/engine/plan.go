package engine

import (
	"fmt"
	"strings"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// Plan is a physical plan node over period relations. Plans are produced
// from snapshot-semantics queries by the REWR rewriting (package rewrite)
// and executed by DB.Exec.
type Plan interface {
	planNode()
	String() string
}

// ScanP scans a stored period relation.
type ScanP struct{ Name string }

// FilterP filters rows by a predicate over the data columns.
type FilterP struct {
	Pred algebra.Expr
	In   Plan
}

// ProjectP projects the data columns (periods carried through), the
// Π_{A, Abegin, Aend} pattern of Fig 4.
type ProjectP struct {
	Exprs []algebra.NamedExpr
	In    Plan
}

// BuildSide fixes the hash-join build side. BuildAuto (the zero value)
// keeps the executors' own estimate-based selection; the physical
// planner pass (package rewrite) pins a side so the decision is made
// once, with statistics, and EXPLAIN can report why.
type BuildSide uint8

const (
	BuildAuto BuildSide = iota
	BuildLeftSide
	BuildRightSide
)

// JoinP is the temporal join pattern of Fig 4: predicate ∧ overlap with
// period intersection. Build and BuildHint are physical annotations set
// by the planner's cost pass: Build pins the hash-join build side and
// BuildHint pre-sizes the build hash table to the estimated build-side
// row count (0 = no hint). Both are ignored by the overlap-sweep
// fallback and never affect results.
type JoinP struct {
	L, R      Plan
	Pred      algebra.Expr
	Build     BuildSide
	BuildHint int64
}

// UnionP is UNION ALL.
type UnionP struct{ L, R Plan }

// DiffP is snapshot-reducible EXCEPT ALL via split (Fig 4). Every
// executor runs it as a blocking sweep: both inputs are materialized,
// then the ℕ-monus difference is swept per value-equivalent group.
type DiffP struct{ L, R Plan }

// AggP is snapshot-reducible aggregation via split (Fig 4); PreAgg
// selects the §9 pre-aggregation optimization. The input is
// materialized, then split and aggregated in one endpoint sweep.
type AggP struct {
	GroupBy []string
	Aggs    []algebra.AggSpec
	PreAgg  bool
	In      Plan
}

// CoalesceP applies the coalesce operator C (Def 8.2) over its
// materialized input.
type CoalesceP struct {
	Impl CoalesceImpl
	In   Plan
}

// SortP is the interval-endpoint sort enforcer: it materializes its
// input and re-emits it ordered by (begin, end). Semantically it is the
// identity on multisets. The planner never inserts one; it remains a
// plan node for hand-built plans and tools that need sorted output.
type SortP struct{ In Plan }

// WindowP is the timeslice operator τ_T over period encodings: every
// row's validity interval is clipped to the window T, and rows not
// overlapping T are dropped. Snapshot-reducibility lets the planner's
// pushdown pass (package rewrite, which documents the per-operator
// legality rules) move it from the plan root toward the scans.
//
// A WindowP node always clips — an invalid T yields the empty result;
// "no window" is expressed by not inserting the node. Prune permits the
// executors to apply the endpoint zone-map check when the node sits
// directly over a stored-table scan: a scan whose min/max endpoint
// envelope is disjoint from T is skipped outright, and a begin-sorted
// scan stops at the first begin ≥ T.End. It is set by the physical
// planner pass and never required for correctness.
type WindowP struct {
	T     interval.Interval
	Prune bool
	In    Plan
}

func (ScanP) planNode()     {}
func (FilterP) planNode()   {}
func (ProjectP) planNode()  {}
func (JoinP) planNode()     {}
func (UnionP) planNode()    {}
func (DiffP) planNode()     {}
func (AggP) planNode()      {}
func (CoalesceP) planNode() {}
func (SortP) planNode()     {}
func (WindowP) planNode()   {}

func (p ScanP) String() string   { return p.Name }
func (p FilterP) String() string { return fmt.Sprintf("Filter[%s](%s)", p.Pred, p.In) }
func (p ProjectP) String() string {
	parts := make([]string, len(p.Exprs))
	for i, ne := range p.Exprs {
		parts[i] = fmt.Sprintf("%s→%s", ne.E, ne.Name)
	}
	return fmt.Sprintf("Project[%s](%s)", strings.Join(parts, ","), p.In)
}
func (p JoinP) String() string  { return fmt.Sprintf("TJoin[%s](%s, %s)", p.Pred, p.L, p.R) }
func (p UnionP) String() string { return fmt.Sprintf("UnionAll(%s, %s)", p.L, p.R) }
func (p DiffP) String() string  { return fmt.Sprintf("TDiff(%s, %s)", p.L, p.R) }
func (p AggP) String() string {
	mode := "naive"
	if p.PreAgg {
		mode = "preagg"
	}
	return fmt.Sprintf("TAgg[%v;%s](%s)", p.GroupBy, mode, p.In)
}
func (p CoalesceP) String() string { return fmt.Sprintf("Coalesce(%s)", p.In) }
func (p SortP) String() string     { return fmt.Sprintf("SortByEndpoints(%s)", p.In) }
func (p WindowP) String() string {
	return fmt.Sprintf("Window[%s](%s)", p.T, p.In)
}

// CountCoalesce returns the number of coalesce operators in the plan,
// used by the §9 ablation to report plan shape.
func CountCoalesce(p Plan) int {
	switch n := p.(type) {
	case ScanP:
		return 0
	case FilterP:
		return CountCoalesce(n.In)
	case ProjectP:
		return CountCoalesce(n.In)
	case JoinP:
		return CountCoalesce(n.L) + CountCoalesce(n.R)
	case UnionP:
		return CountCoalesce(n.L) + CountCoalesce(n.R)
	case DiffP:
		return CountCoalesce(n.L) + CountCoalesce(n.R)
	case AggP:
		return CountCoalesce(n.In)
	case CoalesceP:
		return 1 + CountCoalesce(n.In)
	case SortP:
		return CountCoalesce(n.In)
	case WindowP:
		return CountCoalesce(n.In)
	default:
		return 0
	}
}

// ScanBeginSorted reports whether the stored table name is begin-sorted
// (false for unknown tables). Tables loaded through Append or sorted
// through SortByEndpoints answer from cached metadata in O(1); only
// hand-built tables (direct Rows writes) fall back to an O(n) rescan.
func (db *DB) ScanBeginSorted(name string) bool {
	t, err := db.Table(name)
	return err == nil && t.BeginSorted()
}

// Coalesced reports whether the output of p is guaranteed to be the
// unique coalesced encoding, so that a coalesce above it would be the
// identity. The pre-aggregated split and the difference emit the unique
// encoding. Over a coalesced input it stays
// coalesced through
//
//   - a Filter whose predicate reads no period attribute: it keeps or
//     drops whole value-equivalent groups;
//   - a Window: clipping only shrinks or drops a group's disjoint,
//     non-adjacent segments;
//   - a Sort: the identity on multisets;
//   - a Project whose expressions read no period attribute and include
//     a bare reference to every input column: it is injective, so no
//     two input groups merge into one output group.
//
// Everything else — unions, joins, the naive split, scans, and filters
// or projections reading _begin/_end — makes no guarantee.
func Coalesced(p Plan) bool {
	switch n := p.(type) {
	case AggP:
		return n.PreAgg
	case DiffP:
		return true
	case FilterP:
		return DataOnly(n.Pred) && Coalesced(n.In)
	case WindowP:
		return Coalesced(n.In)
	case SortP:
		return Coalesced(n.In)
	case ProjectP:
		return injective(n) && Coalesced(n.In)
	default:
		return false
	}
}

// DataOnly reports whether e reads no period attribute (_begin/_end).
// Unknown expression forms report false: an expression the analysis
// cannot see through is treated as reading them.
func DataOnly(e algebra.Expr) bool {
	return algebra.ColsSatisfy(e, func(c string) bool { return c != BeginCol && c != EndCol })
}

// injective reports whether every expression of p reads only data
// columns and bare column references cover every column of p's input.
// Input columns the plan cannot name without a catalog (those of a
// scan) count as uncovered.
func injective(p ProjectP) bool {
	cols, ok := outCols(p.In)
	if !ok {
		return false
	}
	covered := make(map[string]bool, len(p.Exprs))
	for _, ne := range p.Exprs {
		if !DataOnly(ne.E) {
			return false
		}
		if c, ok := ne.E.(algebra.ColRef); ok {
			covered[c.Name] = true
		}
	}
	for _, c := range cols {
		if !covered[c] {
			return false
		}
	}
	return true
}

// outCols returns the data column names of p's output when the plan
// alone determines them: an aggregation or projection names its own
// outputs, and a difference, filter, window or sort passes its (left)
// input's through. Other operators report false, which only makes
// Coalesced more conservative.
func outCols(p Plan) ([]string, bool) {
	switch n := p.(type) {
	case AggP:
		cols := append([]string{}, n.GroupBy...)
		for _, a := range n.Aggs {
			cols = append(cols, a.As)
		}
		return cols, true
	case ProjectP:
		cols := make([]string, len(n.Exprs))
		for i, ne := range n.Exprs {
			cols[i] = ne.Name
		}
		return cols, true
	case DiffP:
		return outCols(n.L)
	case FilterP:
		return outCols(n.In)
	case WindowP:
		return outCols(n.In)
	case SortP:
		return outCols(n.In)
	default:
		return nil, false
	}
}

// DB is an in-memory temporal database: named period relations plus a
// plan executor. It stands in for the backend DBMS of the paper's
// middleware architecture.
type DB struct {
	dom    interval.Domain
	tables map[string]*Table
}

// NewDB returns an empty engine database over the given time domain.
func NewDB(dom interval.Domain) *DB {
	return &DB{dom: dom, tables: make(map[string]*Table)}
}

// Domain returns the database's time domain.
func (db *DB) Domain() interval.Domain { return db.dom }

// CreateTable registers an empty period relation with the given data
// schema and returns it for loading.
func (db *DB) CreateTable(name string, data tuple.Schema) *Table {
	t := NewTable(data)
	db.tables[name] = t
	return t
}

// AddTable registers an existing table under name.
func (db *DB) AddTable(name string, t *Table) { db.tables[name] = t }

// Table returns the period relation registered under name.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// RelationSchema implements algebra.Catalog, exposing the data schema
// (without period attributes) of stored tables.
func (db *DB) RelationSchema(name string) (tuple.Schema, error) {
	t, err := db.Table(name)
	if err != nil {
		return tuple.Schema{}, err
	}
	return t.DataSchema(), nil
}

// Exec evaluates a physical plan to a period relation.
func (db *DB) Exec(p Plan) (*Table, error) {
	switch n := p.(type) {
	case ScanP:
		return db.Table(n.Name)
	case FilterP:
		in, err := db.Exec(n.In)
		if err != nil {
			return nil, err
		}
		return Filter(in, n.Pred)
	case ProjectP:
		in, err := db.Exec(n.In)
		if err != nil {
			return nil, err
		}
		return Project(in, n.Exprs)
	case JoinP:
		l, err := db.Exec(n.L)
		if err != nil {
			return nil, err
		}
		r, err := db.Exec(n.R)
		if err != nil {
			return nil, err
		}
		return TemporalJoin(l, r, n.Pred)
	case UnionP:
		l, err := db.Exec(n.L)
		if err != nil {
			return nil, err
		}
		r, err := db.Exec(n.R)
		if err != nil {
			return nil, err
		}
		return UnionAll(l, r)
	case DiffP:
		l, err := db.Exec(n.L)
		if err != nil {
			return nil, err
		}
		r, err := db.Exec(n.R)
		if err != nil {
			return nil, err
		}
		return TemporalDiff(l, r)
	case AggP:
		in, err := db.Exec(n.In)
		if err != nil {
			return nil, err
		}
		return TemporalAggregate(in, n.GroupBy, n.Aggs, n.PreAgg, db.dom)
	case CoalesceP:
		in, err := db.Exec(n.In)
		if err != nil {
			return nil, err
		}
		return Coalesce(in, n.Impl), nil
	case SortP:
		in, err := db.Exec(n.In)
		if err != nil {
			return nil, err
		}
		out := in.Clone()
		// Through the method, not SortRowsByEndpoints(out.Rows): the
		// clone carried the input's metadata, which the sort must update.
		out.SortByEndpoints()
		return out, nil
	case WindowP:
		in, err := db.Exec(n.In)
		if err != nil {
			return nil, err
		}
		return ClipWindow(in, n.T), nil
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", p)
	}
}
