package engine

import (
	"fmt"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// RowIter is a pull-based iterator over period-encoded rows: the volcano
// interface of the streaming executor. Schema returns the full period
// schema (data columns plus BeginCol/EndCol) of the produced rows. Next
// returns the next row and true, or nil and false when the stream is
// exhausted. Close releases the iterator's resources and those of its
// children; it is safe to call more than once.
//
// Rows returned by Next are treated as immutable by all operators;
// consumers that mutate a row must Clone it first.
type RowIter interface {
	Schema() tuple.Schema
	Next() (tuple.Tuple, bool)
	Close()
}

// rowInterval returns the validity interval encoded in the last two
// columns of a period row.
func rowInterval(row tuple.Tuple) interval.Interval {
	n := len(row)
	return interval.Interval{Begin: row[n-2].AsInt(), End: row[n-1].AsInt()}
}

// tableIter streams the rows of a materialized table.
type tableIter struct {
	t *Table
	i int
}

// NewTableIter returns an iterator over the rows of t.
func NewTableIter(t *Table) RowIter { return &tableIter{t: t} }

func (it *tableIter) Schema() tuple.Schema { return it.t.Schema }

func (it *tableIter) Next() (tuple.Tuple, bool) {
	if it.i >= len(it.t.Rows) {
		return nil, false
	}
	row := it.t.Rows[it.i]
	it.i++
	return row, true
}

// NextBatch hands out the next chunk of stored rows — the batch form of
// the table scan: one bounds check and one copy of row references per
// batch instead of a virtual call per row.
func (it *tableIter) NextBatch(b *RowBatch) bool {
	b.Reset()
	n := len(it.t.Rows) - it.i
	if n <= 0 {
		return false
	}
	if c := cap(b.Rows); c > 0 && n > c {
		n = c
	} else if c == 0 && n > DefaultBatchSize {
		n = DefaultBatchSize
	}
	b.Rows = append(b.Rows, it.t.Rows[it.i:it.i+n]...)
	it.i += n
	return true
}

func (it *tableIter) Close() {}

// Err reports no error: a table scan over materialized rows cannot
// fail mid-stream.
func (it *tableIter) Err() error { return nil }

// Materialize drains the iterator into a table, batch-at-a-time when
// the iterator supports it. It does not Close it, and it DISCARDS the
// stream's terminal error — callers that must distinguish a truncated
// drain from a complete one use MaterializeErr instead.
func Materialize(it RowIter) *Table {
	t, _ := MaterializeErr(it)
	return t
}

// filterIter streams the rows of its input satisfying a predicate —
// the pipelined form of Filter. Under batch drive it evaluates the
// predicate over whole child batches, so the per-row cost is one
// compiled-predicate call with no iterator indirection.
type filterIter struct {
	in   RowIter
	cur  batchCursor
	pred algebra.Compiled
}

// newFilterIter takes ownership of in: on error the child is closed, so
// the caller only ever closes the returned iterator.
func newFilterIter(in RowIter, pred algebra.Expr) (RowIter, error) {
	c, err := algebra.Compile(pred, in.Schema())
	if err != nil {
		in.Close()
		return nil, err
	}
	return &filterIter{in: in, cur: batchCursor{in: in}, pred: c}, nil
}

func (it *filterIter) Schema() tuple.Schema { return it.in.Schema() }

func (it *filterIter) Next() (tuple.Tuple, bool) {
	for {
		row, ok := it.cur.next()
		if !ok {
			return nil, false
		}
		if algebra.Truthy(it.pred(row)) {
			return row, true
		}
	}
}

// NextBatch filters whole child chunks with a plain range loop — per
// row only the compiled predicate and a conditional append — and emits
// as soon as one chunk yields any passing rows rather than blocking to
// fill the batch (a ragged batch is legal anywhere in the stream).
func (it *filterIter) NextBatch(out *RowBatch) bool {
	out.Reset()
	it.cur.enableBatch(batchCapOf(out))
	for out.Len() == 0 {
		rows, ok := it.cur.nextChunk()
		if !ok {
			break
		}
		for _, row := range rows {
			if algebra.Truthy(it.pred(row)) {
				out.Append(row)
			}
		}
	}
	return out.Len() > 0
}

func (it *filterIter) Close() { it.in.Close() }

// Err delegates the terminal error to the input stream.
func (it *filterIter) Err() error { return IterErr(it.in) }

// batchCapOf returns the effective row capacity of an output batch —
// its own capacity, or the engine default when the caller handed over
// an empty batch with no backing yet.
func batchCapOf(b *RowBatch) int {
	if c := cap(b.Rows); c > 0 {
		return c
	}
	return DefaultBatchSize
}

// projectIter evaluates projection expressions row-at-a-time, carrying
// the period attributes through unchanged — the pipelined form of
// Project (the Π_{A, Abegin, Aend} pattern of Fig 4).
type projectIter struct {
	in     RowIter
	cur    batchCursor
	fns    []algebra.Compiled
	schema tuple.Schema
}

// newProjectIter takes ownership of in: on error the child is closed,
// so the caller only ever closes the returned iterator.
func newProjectIter(in RowIter, exprs []algebra.NamedExpr) (RowIter, error) {
	fns := make([]algebra.Compiled, len(exprs))
	cols := make([]string, len(exprs))
	for i, ne := range exprs {
		c, err := algebra.Compile(ne.E, in.Schema())
		if err != nil {
			in.Close()
			return nil, err
		}
		fns[i] = c
		cols[i] = ne.Name
	}
	return &projectIter{in: in, cur: batchCursor{in: in}, fns: fns, schema: PeriodSchema(tuple.NewSchema(cols...))}, nil
}

func (it *projectIter) Schema() tuple.Schema { return it.schema }

// project evaluates the projection expressions over one input row,
// carrying the period attributes through unchanged.
func (it *projectIter) project(row tuple.Tuple) tuple.Tuple {
	n := len(row)
	res := make(tuple.Tuple, len(it.fns)+2)
	for i, f := range it.fns {
		res[i] = f(row)
	}
	res[len(it.fns)] = row[n-2]
	res[len(it.fns)+1] = row[n-1]
	return res
}

func (it *projectIter) Next() (tuple.Tuple, bool) {
	row, ok := it.cur.next()
	if !ok {
		return nil, false
	}
	return it.project(row), true
}

// NextBatch projects one whole child chunk per call with a plain range
// loop: expression evaluation still runs per row (each output row needs
// its own backing array), but the iterator hop above and below is paid
// once per batch.
func (it *projectIter) NextBatch(out *RowBatch) bool {
	out.Reset()
	it.cur.enableBatch(batchCapOf(out))
	rows, ok := it.cur.nextChunk()
	if !ok {
		return false
	}
	for _, row := range rows {
		out.Append(it.project(row))
	}
	return true
}

func (it *projectIter) Close() { it.in.Close() }

// Err delegates the terminal error to the input stream.
func (it *projectIter) Err() error { return IterErr(it.in) }

// unionIter concatenates two union-compatible streams — the pipelined
// form of UnionAll.
type unionIter struct {
	l, r   RowIter
	lb, rb BatchIter // batch forms of the children, bound on first NextBatch
	lDone  bool      // l exhausted, now draining r
}

// newUnionIter takes ownership of both inputs: on error the children
// are closed, so the caller only ever closes the returned iterator.
func newUnionIter(l, r RowIter) (RowIter, error) {
	if l.Schema().Arity() != r.Schema().Arity() {
		arities := [2]int{l.Schema().Arity(), r.Schema().Arity()}
		l.Close()
		r.Close()
		return nil, fmt.Errorf("engine: union-incompatible arities %d and %d", arities[0], arities[1])
	}
	return &unionIter{l: l, r: r}, nil
}

func (it *unionIter) Schema() tuple.Schema { return it.l.Schema() }

func (it *unionIter) Next() (tuple.Tuple, bool) {
	if !it.lDone {
		if row, ok := it.l.Next(); ok {
			return row, true
		}
		it.lDone = true
	}
	return it.r.Next()
}

// NextBatch drains the left input batch-at-a-time, then the right: the
// concatenation needs no per-row work at all, so whole child batches
// pass straight through.
func (it *unionIter) NextBatch(out *RowBatch) bool {
	if it.lb == nil {
		it.lb = AsBatchIter(it.l, batchCapOf(out))
		it.rb = AsBatchIter(it.r, batchCapOf(out))
	}
	if !it.lDone {
		if it.lb.NextBatch(out) {
			return true
		}
		it.lDone = true
	}
	return it.rb.NextBatch(out)
}

func (it *unionIter) Close() {
	it.l.Close()
	it.r.Close()
}

// Err reports the first terminal error of either input.
func (it *unionIter) Err() error { return FirstErr(IterErr(it.l), IterErr(it.r)) }

// hashJoinIter is the pipelined temporal hash join: the build side is
// drained into a hash table on the extracted equi-key columns at
// construction; the probe side then streams, so pipeline chains above
// and below the probe side never materialize. Either input can be the
// build side (size-based selection picks the smaller one); swapped
// reports that the build side is the LEFT input, in which case output
// rows are still composed in left-then-right column order.
type hashJoinIter struct {
	schema   tuple.Schema
	probe    RowIter
	cur      batchCursor
	build    map[string]*joinBucket
	probeIdx []int
	res      algebra.Compiled
	lA, rA   int
	swapped  bool
	buildErr error  // terminal error of the (eagerly drained) build side
	scratch  []byte // reusable probe-key buffer: no string allocation per probe row
	// probe state: current probe row and its pending bucket suffix.
	prow   tuple.Tuple
	piv    interval.Interval
	bucket []tuple.Tuple
	bi     int
}

// joinBucket holds the build rows of one equi-key value behind a
// pointer, so the build loop can append through an allocation-free
// map[string(scratch)] lookup and only materialize a key string once
// per distinct key.
type joinBucket struct{ rows []tuple.Tuple }

// JoinPrep is the compiled form of a temporal join predicate: extracted
// equi-key columns plus the compiled residual over the concatenated data
// schema. It separates predicate analysis from execution so the build
// phase can run once while several probe iterators (one per parallel
// fragment) share its output.
type JoinPrep struct {
	joined     tuple.Schema
	res        algebra.Compiled
	lIdx, rIdx []int
	lA, rA     int
}

// PrepareJoin analyses pred over the two data schemas (period attributes
// excluded). The returned prep reports via HasEquiKey whether a hash
// join applies; without any equality conjunct the join must fall back to
// the interval-overlap sweep.
func PrepareJoin(lData, rData tuple.Schema, pred algebra.Expr) (*JoinPrep, error) {
	joined := lData.Concat(rData, "r.")
	keys, residual := extractEquiKeys(pred, lData, joined, lData.Arity())
	res, err := algebra.Compile(residual, joined)
	if err != nil {
		return nil, err
	}
	p := &JoinPrep{joined: joined, res: res, lA: lData.Arity(), rA: rData.Arity()}
	for _, k := range keys {
		p.lIdx = append(p.lIdx, k.l)
		p.rIdx = append(p.rIdx, k.r)
	}
	return p, nil
}

// HasEquiKey reports whether the predicate contains at least one
// equality conjunct usable as a hash-join key.
func (p *JoinPrep) HasEquiKey() bool { return len(p.lIdx) > 0 }

// Schema returns the period schema of the join output.
func (p *JoinPrep) Schema() tuple.Schema { return PeriodSchema(p.joined) }

// JoinBuild is a drained, immutable hash-join build side. It is safe to
// probe from multiple goroutines concurrently: every Probe iterator
// carries its own cursor state and only reads the shared table. left
// records which input was built (the probe side is the other one).
type JoinBuild struct {
	prep  *JoinPrep
	build map[string]*joinBucket
	left  bool
	rows  int64 // build rows retained (the governor's memory-charge basis)
	err   error // terminal error of the build-side drain
}

// Err reports the terminal error of the build-side drain: a build over
// a failed input stream is incomplete, and probing it would silently
// drop matches.
func (b *JoinBuild) Err() error { return b.err }

// Rows returns the number of rows retained in the build table.
func (b *JoinBuild) Rows() int64 { return b.rows }

// Build drains the right (build-side) input into a hash table on the
// equi-key columns and closes it. It must only be called when HasEquiKey
// reports true.
func (p *JoinPrep) Build(r RowIter) *JoinBuild { return p.buildSide(r, false, 0) }

// BuildLeft drains the LEFT input as the build side instead — the
// size-based build-side selection path when the left input is known to
// be smaller. The probe iterator then consumes the right input; output
// column order is unaffected.
func (p *JoinPrep) BuildLeft(l RowIter) *JoinBuild { return p.buildSide(l, true, 0) }

// BuildSized is Build with the hash table pre-sized for roughly hint
// build-side rows (≤ 0 = no hint). The hint is the planner's cardinality
// estimate: a good one removes the map's incremental rehash/grow
// allocations during the build drain, a bad one costs at most the
// overshoot's memory. Never affects results.
func (p *JoinPrep) BuildSized(r RowIter, hint int64) *JoinBuild { return p.buildSide(r, false, hint) }

// BuildLeftSized is BuildLeft with the pre-sizing hint of BuildSized.
func (p *JoinPrep) BuildLeftSized(l RowIter, hint int64) *JoinBuild {
	return p.buildSide(l, true, hint)
}

func (p *JoinPrep) buildSide(in RowIter, left bool, hint int64) *JoinBuild {
	keyIdx := p.rIdx
	if left {
		keyIdx = p.lIdx
	}
	if hint < 0 {
		hint = 0
	}
	build := make(map[string]*joinBucket, hint)
	var n int64
	var scratch []byte
	src := AsBatchIter(in, DefaultBatchSize)
	batch := NewRowBatch(DefaultBatchSize)
	for src.NextBatch(batch) {
		for _, row := range batch.Rows {
			// SQL comparison semantics: a NULL in any join key compares
			// unknown, so such rows can never match.
			if hasNullAt(row, keyIdx) {
				continue
			}
			scratch = row.AppendKey(scratch[:0], keyIdx)
			b, okB := build[string(scratch)]
			if !okB {
				b = &joinBucket{}
				build[string(scratch)] = b
			}
			//lint:ignore rowretain hash-join build side holds rows read-only; engine producers never reuse yielded row backing (only the batch slice is reused, and the row is copied out of it here)
			b.rows = append(b.rows, row)
			n++
		}
	}
	err := IterErr(in)
	in.Close()
	return &JoinBuild{prep: p, build: build, left: left, rows: n, err: err}
}

// Probe returns a streaming probe iterator over the non-built input
// against the shared build table. The iterator takes ownership of probe.
func (b *JoinBuild) Probe(probe RowIter) RowIter {
	probeIdx := b.prep.lIdx
	if b.left {
		probeIdx = b.prep.rIdx
	}
	return &hashJoinIter{
		schema:   b.prep.Schema(),
		probe:    probe,
		cur:      batchCursor{in: probe},
		build:    b.build,
		probeIdx: probeIdx,
		res:      b.prep.res,
		lA:       b.prep.lA,
		rA:       b.prep.rA,
		swapped:  b.left,
		buildErr: b.err,
	}
}

// newJoinIter builds the streaming temporal join over two input streams.
// Equality conjuncts of pred become hash-join keys with the right input
// as build side; without any equi key the join degrades to the
// endpoint-sorted interval-overlap sweep (newOverlapJoinIter) instead of
// a single-bucket hash table. newJoinIter takes ownership of both
// inputs: consumed or failed children are closed here, so the caller
// only ever closes the returned iterator.
func newJoinIter(l, r RowIter, pred algebra.Expr) (RowIter, error) {
	return newJoinIterSided(l, r, pred, false, 0)
}

// newJoinIterBuildLeft is newJoinIter with the LEFT input as build side
// — chosen by plan-level size-based build-side selection when the left
// input is estimated smaller.
func newJoinIterBuildLeft(l, r RowIter, pred algebra.Expr) (RowIter, error) {
	return newJoinIterSided(l, r, pred, true, 0)
}

func newJoinIterSided(l, r RowIter, pred algebra.Expr, buildLeft bool, hint int64) (RowIter, error) {
	lData := tuple.Schema{Cols: l.Schema().Cols[:l.Schema().Arity()-2]}
	rData := tuple.Schema{Cols: r.Schema().Cols[:r.Schema().Arity()-2]}
	prep, err := PrepareJoin(lData, rData, pred)
	if err != nil {
		l.Close()
		r.Close()
		return nil, err
	}
	if !prep.HasEquiKey() {
		return newOverlapJoinIter(l, r, prep.joined, prep.res)
	}
	// The build side is fully drained and released by the build; the
	// probe side stays open until the joint iterator is closed. A build
	// over a failed stream is incomplete — surface that as a
	// construction error rather than probing a partial table.
	var jb *JoinBuild
	probe := l
	if buildLeft {
		jb, probe = prep.BuildLeftSized(l, hint), r
	} else {
		jb = prep.BuildSized(r, hint)
	}
	if err := jb.Err(); err != nil {
		probe.Close()
		return nil, err
	}
	return jb.Probe(probe), nil
}

// BuildLeftSmaller decides hash-join build-side orientation from two
// cardinality estimates (−1 = unknown): build on the left only when
// both sides are known and the left is strictly smaller; default to the
// right build side otherwise.
func BuildLeftSmaller(lEst, rEst int64) bool {
	return lEst >= 0 && rEst >= 0 && lEst < rEst
}

func hasNullAt(row tuple.Tuple, idx []int) bool {
	for _, i := range idx {
		if row[i].IsNull() {
			return true
		}
	}
	return false
}

func (it *hashJoinIter) Schema() tuple.Schema { return it.schema }

// NextBatch runs the probe loop until the output batch is full or the
// probe side is exhausted, reading probe rows batch-at-a-time: the
// iterator hop on both sides of the probe is paid once per batch.
func (it *hashJoinIter) NextBatch(out *RowBatch) bool {
	out.Reset()
	limit := batchCapOf(out)
	it.cur.enableBatch(limit)
	for out.Len() < limit {
		row, ok := it.Next()
		if !ok {
			break
		}
		out.Append(row)
	}
	return out.Len() > 0
}

func (it *hashJoinIter) Next() (tuple.Tuple, bool) {
	for {
		for it.bi < len(it.bucket) {
			brow := it.bucket[it.bi]
			it.bi++
			iv, ok := it.piv.Intersect(rowInterval(brow)) // the overlaps() condition of Fig 4
			if !ok {
				continue
			}
			data := make(tuple.Tuple, 0, it.lA+it.rA+2)
			if it.swapped {
				data = append(data, brow[:it.lA]...)
				data = append(data, it.prow[:it.rA]...)
			} else {
				data = append(data, it.prow[:it.lA]...)
				data = append(data, brow[:it.rA]...)
			}
			if !algebra.Truthy(it.res(data)) {
				continue
			}
			data = append(data, tuple.Int(iv.Begin), tuple.Int(iv.End))
			return data, true
		}
		prow, ok := it.cur.next()
		if !ok {
			return nil, false
		}
		if hasNullAt(prow, it.probeIdx) {
			continue
		}
		//lint:ignore rowretain probe row is held read-only and replaced by the next probe Next
		it.prow = prow
		it.piv = rowInterval(prow)
		it.scratch = prow.AppendKey(it.scratch[:0], it.probeIdx)
		if b := it.build[string(it.scratch)]; b != nil {
			it.bucket = b.rows
		} else {
			it.bucket = nil
		}
		it.bi = 0
	}
}

func (it *hashJoinIter) Close() { it.probe.Close() }

// Err reports the build side's terminal error, then the probe side's.
func (it *hashJoinIter) Err() error { return FirstErr(it.buildErr, IterErr(it.probe)) }

// ExecStream evaluates a physical plan to a pull-based row stream.
// Filter, Project, UnionAll and the probe side of the temporal join are
// fully pipelined; the blocking operators (Split-based aggregation,
// difference and coalesce) consume their input streams and keep their
// endpoint-sweep internals. The caller must Close the returned iterator.
func (db *DB) ExecStream(p Plan) (RowIter, error) {
	return db.ExecStreamObs(p, nil)
}

// ExecStreamObs is ExecStream with EXPLAIN ANALYZE instrumentation: each
// operator gets an OpStats child of parent and its iterator is wrapped
// in an ObsIter recording into it. With parent == nil (the ExecStream
// path) every Child and NewObsIter call is an identity no-op, so the
// uninstrumented hot path is unchanged.
func (db *DB) ExecStreamObs(p Plan, parent *OpStats) (RowIter, error) {
	switch n := p.(type) {
	case ScanP:
		t, err := db.Table(n.Name)
		if err != nil {
			return nil, err
		}
		return NewObsIter(NewTableIter(t), parent.Child("Scan", n.Name)), nil
	case FilterP:
		st := parent.Child("Filter", "")
		in, err := db.ExecStreamObs(n.In, st)
		if err != nil {
			return nil, err
		}
		it, err := newFilterIter(in, n.Pred)
		if err != nil {
			return nil, err
		}
		return NewObsIter(it, st), nil
	case ProjectP:
		st := parent.Child("Project", "")
		in, err := db.ExecStreamObs(n.In, st)
		if err != nil {
			return nil, err
		}
		it, err := newProjectIter(in, n.Exprs)
		if err != nil {
			return nil, err
		}
		return NewObsIter(it, st), nil
	case JoinP:
		st := parent.Child("Join", "")
		l, err := db.ExecStreamObs(n.L, st)
		if err != nil {
			return nil, err
		}
		r, err := db.ExecStreamObs(n.R, st)
		if err != nil {
			l.Close()
			return nil, err
		}
		// The hash-join build side drains at construction, outside any
		// Next: attribute it to the join node via an explicit span. The
		// planner may have pinned the build side on the plan node; with
		// BuildAuto the executor keeps its own estimate-based pick.
		var buildLeft bool
		switch n.Build {
		case BuildLeftSide:
			buildLeft = true
		case BuildRightSide:
			buildLeft = false
		default:
			buildLeft = BuildLeftSmaller(db.EstimateRows(n.L), db.EstimateRows(n.R))
		}
		if st != nil {
			st.Detail = joinDetail(l.Schema(), r.Schema(), n.Pred, buildLeft)
		}
		done := st.Span()
		it, err := newJoinIterSided(l, r, n.Pred, buildLeft, n.BuildHint)
		done()
		if err != nil {
			return nil, err
		}
		return NewObsIter(it, st), nil
	case UnionP:
		st := parent.Child("Union", "")
		l, err := db.ExecStreamObs(n.L, st)
		if err != nil {
			return nil, err
		}
		r, err := db.ExecStreamObs(n.R, st)
		if err != nil {
			l.Close()
			return nil, err
		}
		it, err := newUnionIter(l, r)
		if err != nil {
			return nil, err
		}
		return NewObsIter(it, st), nil
	case DiffP:
		st := parent.Child("Diff", "")
		l, err := db.streamToTableObs(n.L, st)
		if err != nil {
			return nil, err
		}
		r, err := db.streamToTableObs(n.R, st)
		if err != nil {
			return nil, err
		}
		st.AddState(int64(l.Len() + r.Len()))
		done := st.Span()
		out, err := TemporalDiff(l, r)
		done()
		if err != nil {
			return nil, err
		}
		return NewObsIter(NewTableIter(out), st), nil
	case AggP:
		st := parent.Child("Agg", aggDetail(n))
		in, err := db.streamToTableObs(n.In, st)
		if err != nil {
			return nil, err
		}
		st.AddState(int64(in.Len()))
		done := st.Span()
		out, err := TemporalAggregate(in, n.GroupBy, n.Aggs, n.PreAgg, db.dom)
		done()
		if err != nil {
			return nil, err
		}
		return NewObsIter(NewTableIter(out), st), nil
	case CoalesceP:
		st := parent.Child("Coalesce", "")
		in, err := db.streamToTableObs(n.In, st)
		if err != nil {
			return nil, err
		}
		st.AddState(int64(in.Len()))
		done := st.Span()
		out := Coalesce(in, n.Impl)
		done()
		return NewObsIter(NewTableIter(out), st), nil
	case SortP:
		st := parent.Child("Sort", "enforcer")
		in, err := db.ExecStreamObs(n.In, st)
		if err != nil {
			return nil, err
		}
		// sortIter drains and sorts inside its first Next, so the ObsIter
		// timing captures the enforcement cost without an explicit span.
		return NewObsIter(NewSortIter(in), st), nil
	case WindowP:
		st := parent.Child("Window", n.T.String())
		// The zone-map prune applies when the window sits directly over a
		// stored-table scan: skip the scan entirely when the endpoint
		// envelope is disjoint from T, and stop a begin-sorted scan at the
		// first row with begin ≥ T.End.
		if scan, ok := n.In.(ScanP); ok && n.Prune {
			t, err := db.Table(scan.Name)
			if err != nil {
				return nil, err
			}
			hi, skip := PruneWindowScan(t, n.T)
			if skip {
				t = &Table{Schema: t.Schema}
			} else {
				t = t.Prefix(hi)
			}
			scanIt := NewObsIter(NewTableIter(t), st.Child("Scan", scan.Name))
			return NewObsIter(NewWindowIter(scanIt, n.T), st), nil
		}
		in, err := db.ExecStreamObs(n.In, st)
		if err != nil {
			return nil, err
		}
		return NewObsIter(NewWindowIter(in, n.T), st), nil
	default:
		return nil, fmt.Errorf("engine: unknown plan node %T", p)
	}
}

// joinDetail summarizes the join strategy for EXPLAIN ANALYZE: hash join
// with its build side, or the interval-overlap sweep fallback.
func joinDetail(lSchema, rSchema tuple.Schema, pred algebra.Expr, buildLeft bool) string {
	lData := tuple.Schema{Cols: lSchema.Cols[:lSchema.Arity()-2]}
	rData := tuple.Schema{Cols: rSchema.Cols[:rSchema.Arity()-2]}
	prep, err := PrepareJoin(lData, rData, pred)
	if err != nil || !prep.HasEquiKey() {
		return "overlap-sweep"
	}
	if buildLeft {
		return "hash build=left"
	}
	return "hash build=right"
}

// aggDetail names the split flavor of an aggregation.
func aggDetail(n AggP) string {
	if n.PreAgg {
		return "pre-agg"
	}
	return "naive"
}

// NewFilterIter wraps in with the pipelined Filter operator. It takes
// ownership of in: on error the child is closed.
func NewFilterIter(in RowIter, pred algebra.Expr) (RowIter, error) {
	return newFilterIter(in, pred)
}

// NewProjectIter wraps in with the pipelined Project operator. It takes
// ownership of in: on error the child is closed.
func NewProjectIter(in RowIter, exprs []algebra.NamedExpr) (RowIter, error) {
	return newProjectIter(in, exprs)
}

// NewUnionIter concatenates two union-compatible streams, taking
// ownership of both.
func NewUnionIter(l, r RowIter) (RowIter, error) {
	return newUnionIter(l, r)
}

// NewJoinIter builds the streaming temporal join over two input streams,
// taking ownership of both. It is the exported form of the JoinP case of
// ExecStream, used by the parallel executor for its sequential fallback.
func NewJoinIter(l, r RowIter, pred algebra.Expr) (RowIter, error) {
	return newJoinIter(l, r, pred)
}

// streamToTable materializes the streaming evaluation of a subplan —
// the input boundary of the blocking operators.
func (db *DB) streamToTable(p Plan) (*Table, error) {
	return db.streamToTableObs(p, nil)
}

// streamToTableObs is streamToTable with the subplan's operator stats
// attached under parent (nil disables collection).
func (db *DB) streamToTableObs(p Plan, parent *OpStats) (*Table, error) {
	it, err := db.ExecStreamObs(p, parent)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	return MaterializeErr(it)
}

// sortIter is the interval-endpoint sort enforcer: it drains its input
// on first use, sorts the rows by (begin, end) with the shared endpoint
// comparator, and re-emits them.
type sortIter struct {
	in     RowIter
	rows   []tuple.Tuple
	i      int
	loaded bool
	err    error
}

// NewSortIter wraps in with the endpoint sort enforcer, taking
// ownership of it.
func NewSortIter(in RowIter) RowIter {
	return CheckOrdered("sort enforcer", &sortIter{in: in})
}

func (it *sortIter) Schema() tuple.Schema { return it.in.Schema() }

// load drains and sorts the input on first use. A drain terminated by
// an error yields NO rows: emitting a sorted prefix of a failed stream
// would be silent truncation, so the sort surfaces the error and
// nothing else.
func (it *sortIter) load() {
	it.rows, it.err = drainRowsErr(it.in)
	if it.err != nil {
		it.rows = nil
	}
	SortRowsByEndpoints(it.rows)
	it.loaded = true
}

func (it *sortIter) Next() (tuple.Tuple, bool) {
	if !it.loaded {
		it.load()
	}
	if it.i >= len(it.rows) {
		return nil, false
	}
	row := it.rows[it.i]
	it.i++
	return row, true
}

// NextBatch re-emits the sorted rows chunk-at-a-time; the drain on
// first use already reads the child batch-at-a-time via drainRowsErr.
func (it *sortIter) NextBatch(b *RowBatch) bool {
	if !it.loaded {
		it.load()
	}
	b.Reset()
	n := len(it.rows) - it.i
	if n <= 0 {
		return false
	}
	if c := batchCapOf(b); n > c {
		n = c
	}
	b.Rows = append(b.Rows, it.rows[it.i:it.i+n]...)
	it.i += n
	return true
}

func (it *sortIter) Close() { it.in.Close() }

// Err reports the drain error captured at load time, else the input's.
func (it *sortIter) Err() error { return FirstErr(it.err, IterErr(it.in)) }
