// Package parallel is the multi-core execution subsystem of the engine:
// it evaluates a physical plan as a set of concurrently running pipeline
// fragments connected by exchange operators (partition / merge over
// bounded row-batch channels), in the morsel-driven style.
//
// The plan is split at exchange boundaries: table scans are partitioned
// into morsels claimed by W workers through a shared atomic cursor, and
// the streaming operators above a scan — Filter, Project, the probe side
// of the temporal hash join — are replicated into each worker's
// fragment, so an entire Filter→Probe→Project chain runs W-wide without
// synchronization until the final merge. The hash-join build side is
// drained once into an immutable shared table (engine.JoinBuild) that
// all probe fragments read concurrently, built on whichever input the
// stored-table cardinality estimates prove smaller. The sweep operators
// (split-based aggregation, difference, coalesce) are parallelized by a
// hash-partition exchange on their group key: value-equivalent groups
// never straddle partitions, so each worker runs an independent sweep
// over its partition and the merged output is multiset-identical to
// sequential execution.
//
// Each sweep has one physical form: every worker materializes its hash
// partition and runs the blocking sweep over it (lazySweepIter), and the
// sequential form materializes its whole input first (executor.table).
// Both charge the rows they materialize against the memory budget and
// record them as the node's max_state.
//
// Because period relations are multisets, the nondeterministic arrival
// order at a merge exchange is semantically invisible: the
// result is multiset-identical to sequential execution (enforced by the
// qgen equivalence suite and the parallel fuzz differential).
//
// Cancellation: Exec threads a context.Context through iterator
// creation. Canceling it — or closing the returned iterator — tears
// down every fragment goroutine; Close blocks until all of them have
// exited and is idempotent.
//
// Fault domain: the executor is the query's failure boundary. Every
// fragment goroutine and the root iterator run behind a recover() that
// converts a panic into a query error instead of crashing the process;
// the first error (panic, failed drain, tripped resource limit,
// cancellation) lands in the executor's central error slot, cancels the
// execution context — tearing down sibling fragments through the
// refcounted exchange lifecycle — and surfaces through the root
// iterator's Err, per the engine's error-carrying iterator protocol.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"snapk/internal/engine"
	"snapk/internal/tuple"
)

// Options configures parallel plan execution.
type Options struct {
	// Workers is the number of fragment goroutines per exchange. Values
	// below 1 default to GOMAXPROCS. Workers == 1 degenerates to the
	// sequential streaming engine (plus context cancellation).
	Workers int
	// MorselSize is the number of rows per scan morsel and per exchange
	// batch; 0 selects the default (256).
	MorselSize int
	// BatchSize is the row capacity of the batch-at-a-time hop: with it
	// enabled, exchange producers fill transport batches through
	// NextBatch (one virtual call per batch per operator boundary),
	// consumer-side iterators adopt them wholesale as engine.RowBatch
	// row slices, and the root iterator returned by Exec implements
	// engine.BatchIter. 0 ties the batch size to MorselSize — one knob
	// governs scan morsels, exchange batches and operator batches.
	// Negative values disable the batch protocol entirely: the per-row
	// Volcano compatibility path, kept as the ablation baseline.
	BatchSize int
	// Stats, when non-nil, is the EXPLAIN ANALYZE parent node: the
	// executor attaches one OpStats child per operator and exchange
	// (with per-fragment children for partitioned operators) beneath it
	// and wraps every physical iterator in an instrumented ObsIter. Nil
	// disables collection entirely — every wrapper is an identity no-op,
	// so the uninstrumented hot path is unchanged.
	Stats *engine.OpStats
	// Gov, when non-nil, is the per-query resource governor: the root
	// iterator charges emitted rows against its row limit, and the rows
	// that blocking sweeps, sort enforcers and the hash-join build
	// materialize are charged against its memory budget. Tripping a
	// limit fails the query with the governor's typed error. Nil (the
	// default) disables all charging.
	Gov *engine.Governor
	// Inject, when non-nil, wraps the iterator built at each operator
	// and exchange boundary — the chaos fault-injection hook. Production
	// queries leave it nil.
	Inject engine.IterWrapper
}

// DefaultMorselSize is the scan-morsel / exchange-batch row count used
// when Options.MorselSize is zero: large enough to amortize channel
// synchronization, small enough to load-balance skewed fragments.
const DefaultMorselSize = 256

// executor carries the per-Exec state: the cancellable execution
// context, the WaitGroup tracking every spawned fragment goroutine, and
// the query's fault-domain state (first-error slot, governor, inject
// hook).
type executor struct {
	ctx     context.Context
	cancel  context.CancelFunc
	db      *engine.DB
	workers int
	morsel  int
	// batchSize is the resolved batch-hop row capacity; 0 means the
	// batch protocol is disabled (the per-row ablation).
	batchSize int
	wg        sync.WaitGroup
	// qerr holds the first error that failed the query; set through
	// fail, read per root Next through errOf (one atomic load).
	qerr     atomic.Pointer[error]
	gov      *engine.Governor
	injectFn engine.IterWrapper
}

// fail records err as the query's terminal error (first one wins) and
// cancels the execution context, tearing down every sibling fragment
// through the refcounted exchange lifecycle. Safe from any goroutine;
// nil is a no-op.
func (e *executor) fail(err error) {
	if err == nil {
		return
	}
	e.qerr.CompareAndSwap(nil, &err)
	e.cancel()
}

// errOf returns the query's terminal error, nil while healthy.
func (e *executor) errOf() error {
	if p := e.qerr.Load(); p != nil {
		return *p
	}
	return nil
}

// recoverPanic is the fragment-goroutine panic boundary: deferred at
// the top of every producer goroutine (and, via the root iterator's
// guarded Next, at the consumer boundary), it converts a panic into a
// query error instead of crashing the process. The stack is folded into
// the error so a contained panic stays diagnosable through Rows.Err.
func (e *executor) recoverPanic(site string) {
	if r := recover(); r != nil {
		e.fail(fmt.Errorf("parallel: panic in %s: %v\n%s", site, r, debug.Stack()))
	}
}

// inject applies the chaos fault-injection hook at one operator or
// exchange boundary; identity when no hook is configured.
func (e *executor) inject(site string, it engine.RowIter) engine.RowIter {
	if e.injectFn == nil {
		return it
	}
	return e.injectFn(site, it)
}

// injectStream applies the inject hook to every physical iterator of s.
func (e *executor) injectStream(site string, s *pstream) *pstream {
	if e.injectFn == nil {
		return s
	}
	if s.seq != nil {
		s.seq = e.injectFn(site, s.seq)
		return s
	}
	for i := range s.parts {
		s.parts[i] = e.injectFn(fmt.Sprintf("%s:%d", site, i), s.parts[i])
	}
	return s
}

// charge records n rows a blocking operator materialized at arity as
// st's state and charges them against the memory budget, returning
// ErrMemBudget once the budget is exceeded.
func (e *executor) charge(st *engine.OpStats, n int64, arity int) error {
	st.AddState(n)
	return e.gov.ChargeMem(n * engine.ApproxRowBytes(arity))
}

// pstream is a stream in one of two physical forms: a single sequential
// iterator, or W per-worker fragment iterators awaiting a merge.
type pstream struct {
	seq    engine.RowIter   // exactly one of seq / parts is set
	parts  []engine.RowIter // one fragment per worker
	schema tuple.Schema
}

func (s *pstream) close() {
	if s.seq != nil {
		s.seq.Close()
	}
	for _, p := range s.parts {
		p.Close()
	}
}

// dataSchema strips the period attributes from the stream schema.
func (s *pstream) dataSchema() tuple.Schema {
	return tuple.Schema{Cols: s.schema.Cols[:s.schema.Arity()-2]}
}

// sources returns the physical iterators of the stream — its fragments
// when partitioned, the single sequential iterator otherwise — for
// exchanges that can consume either form directly.
func (s *pstream) sources() []engine.RowIter {
	if s.parts != nil {
		return s.parts
	}
	return []engine.RowIter{s.seq}
}

// Exec evaluates p on db with opt.Workers parallel fragments and returns
// a single merged row stream. The caller must Close the returned
// iterator; Close (or cancellation of ctx) stops and reaps every
// fragment goroutine. With Workers <= 1 execution is sequential and only
// the cancellation wrapper is added.
func Exec(ctx context.Context, db *engine.DB, p engine.Plan, opt Options) (engine.RowIter, error) {
	workers := opt.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	morsel := opt.MorselSize
	if morsel <= 0 {
		morsel = DefaultMorselSize
	}
	batchSize := opt.BatchSize
	if batchSize == 0 {
		batchSize = morsel
	}
	if batchSize < 0 {
		batchSize = 0 // per-row ablation: batch protocol disabled
	}
	var ectx context.Context
	var cancel context.CancelFunc
	if d := opt.Gov.Timeout(); d > 0 {
		// The per-query deadline rides the execution context, so it
		// tears fragments down exactly like a user cancellation and
		// surfaces as context.DeadlineExceeded through Err.
		ectx, cancel = context.WithTimeout(ctx, d)
	} else {
		ectx, cancel = context.WithCancel(ctx)
	}
	e := &executor{ctx: ectx, cancel: cancel, db: db, workers: workers, morsel: morsel,
		batchSize: batchSize, gov: opt.Gov, injectFn: opt.Inject}
	s, err := e.buildSafe(p, opt.Stats)
	if err != nil {
		cancel()
		e.wg.Wait()
		return nil, err
	}
	// The outermost ObsIter counts rows on the parent node itself, so its
	// row count is exactly what the root cursor observes.
	root := engine.NewObsIter(engine.CheckNoAlias("parallel exec root", e.merge(s, opt.Stats)), opt.Stats)
	if bi, ok := root.(engine.BatchIter); ok && e.batchSize > 0 {
		return &execBatchIter{execIter: execIter{ctx: ectx, cancel: cancel, e: e, it: root}, bit: bi}, nil
	}
	return &execIter{ctx: ectx, cancel: cancel, e: e, it: root}, nil
}

// buildSafe is the plan-build phase behind the panic boundary: a panic
// while compiling the plan (eager hash-join builds and sort enforcers
// drain whole subplans here) becomes a returned error, and the caller's
// cancel-and-reap path tears down whatever fragments already started.
func (e *executor) buildSafe(p engine.Plan, parent *engine.OpStats) (s *pstream, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("parallel: panic in plan build: %v\n%s", r, debug.Stack())
		}
	}()
	s, err = e.build(p, parent)
	if err == nil {
		// A build-phase drain may have failed through the central error
		// slot (producer panic, tripped limit) without the constructor
		// noticing: surface it now rather than running a doomed query.
		err = e.errOf()
		if err != nil {
			s.close()
			s = nil
		}
	}
	return s, err
}

// execIter is the root iterator returned by Exec: it owns the execution
// context and reaps all fragment goroutines on Close.
type execIter struct {
	ctx    context.Context
	cancel context.CancelFunc
	e      *executor
	it     engine.RowIter
	closed atomic.Bool
}

func (it *execIter) Schema() tuple.Schema { return it.it.Schema() }

// gate runs the pre-pull checks shared by Next and NextBatch: closed,
// already-failed, and context state. A context error observed while the
// iterator is still open is recorded as the query error — cancellation
// and deadline expiry surface through Err, not as a silent end of
// stream; an error observed because Close canceled the context is not
// an error at all.
func (it *execIter) gate() bool {
	if it.closed.Load() || it.e.errOf() != nil {
		return false
	}
	if err := it.ctx.Err(); err != nil {
		if !it.closed.Load() {
			it.e.fail(err)
		}
		return false
	}
	return true
}

func (it *execIter) Next() (tuple.Tuple, bool) {
	if !it.gate() {
		return nil, false
	}
	row, ok := it.guardedNext()
	if !ok {
		it.latchEOS()
		return nil, false
	}
	if err := it.e.gov.CountRows(1); err != nil {
		it.e.fail(err)
		return nil, false
	}
	return row, true
}

// latchEOS records why a pull came back empty. gate checks the context
// before each pull, but a cancellation (or chain error) that lands while
// the pull is blocked inside an exchange surfaces as a clean end of
// stream from a drained channel — and the consumer, seeing EOS, never
// pulls again, so gate never re-runs. Without this post-check that is a
// silent truncation. The closed re-check keeps Close's own cancel from
// reading as a query error (Close sets closed before canceling).
func (it *execIter) latchEOS() {
	if err := engine.IterErr(it.it); err != nil {
		it.e.fail(err)
		return
	}
	if err := it.ctx.Err(); err != nil && !it.closed.Load() {
		it.e.fail(err)
	}
}

// guardedNext is the consumer-side panic boundary: a panic unwinding
// out of the root pull (any operator on the sequential path runs on
// this goroutine) becomes the query error.
func (it *execIter) guardedNext() (row tuple.Tuple, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			it.e.fail(fmt.Errorf("parallel: panic in query root: %v\n%s", r, debug.Stack()))
			row, ok = nil, false
		}
	}()
	return it.it.Next()
}

// Err reports the query's terminal error: the executor's central slot
// first (producer-side failures, contained panics, limits, cancel),
// then the root chain's own error-carrying protocol.
func (it *execIter) Err() error {
	if err := it.e.errOf(); err != nil {
		return err
	}
	return engine.IterErr(it.it)
}

// Close cancels the execution context, closes the merged stream and
// blocks until every fragment goroutine has exited. It is idempotent
// and safe to call concurrently with Next.
func (it *execIter) Close() {
	if it.closed.Swap(true) {
		return
	}
	it.cancel()
	it.it.Close()
	it.e.wg.Wait()
}

// execBatchIter is the batch-capable root returned when the batch hop
// is enabled and the merged stream is batch-capable: the cursor (or any
// other consumer) drives the whole pipeline through NextBatch, one
// virtual call per batch end to end.
type execBatchIter struct {
	execIter
	bit engine.BatchIter
}

func (it *execBatchIter) NextBatch(b *engine.RowBatch) bool {
	if !it.gate() {
		b.Reset()
		return false
	}
	ok := it.guardedNextBatch(b)
	if !ok {
		it.latchEOS()
		return false
	}
	if err := it.e.gov.CountRows(int64(b.Len())); err != nil {
		it.e.fail(err)
		b.Reset()
		return false
	}
	return true
}

// guardedNextBatch is the batch form of the consumer-side panic
// boundary.
func (it *execBatchIter) guardedNextBatch(b *engine.RowBatch) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			it.e.fail(fmt.Errorf("parallel: panic in query root: %v\n%s", r, debug.Stack()))
			b.Reset()
			ok = false
		}
	}()
	return it.bit.NextBatch(b)
}

// merge collapses a stream to a single iterator, inserting a merge
// exchange over partitioned fragments.
func (e *executor) merge(s *pstream, parent *engine.OpStats) engine.RowIter {
	it := s.seq
	if it == nil {
		it = e.startMerge(s.parts, parent)
	}
	if e.batchSize == 0 {
		// Per-row ablation: hide batch capability so engine-internal
		// drains (Materialize, hash-join build) stay on the classic
		// Volcano path too, keeping the comparison honest.
		return engine.PerRow(it)
	}
	return it
}

// partition converts a stream to W fragment iterators, inserting a
// repartition exchange under sequential sources.
func (e *executor) partition(s *pstream, parent *engine.OpStats) []engine.RowIter {
	if s.parts != nil {
		return s.parts
	}
	return e.repartition(s.seq, parent)
}

// obsStream wraps the physical iterators of s with EXPLAIN ANALYZE
// instrumentation recording into st: the sequential form onto st
// itself, fragments onto per-fragment children (the per-worker skew
// view). Identity when st is nil.
func obsStream(s *pstream, st *engine.OpStats) *pstream {
	if st == nil {
		return s
	}
	if s.seq != nil {
		s.seq = engine.NewObsIter(s.seq, st)
		return s
	}
	for i := range s.parts {
		s.parts[i] = engine.NewObsIter(s.parts[i], st.Fragment(i))
	}
	return s
}

// build compiles a plan node to a pstream, pushing streaming operators
// into partitioned fragments and placing exchanges only where the plan
// shape requires them. parent is the EXPLAIN ANALYZE attachment point
// (nil when not collecting): each node adds its own OpStats child and
// builds its inputs beneath it, so the stats tree mirrors the plan.
func (e *executor) build(p engine.Plan, parent *engine.OpStats) (*pstream, error) {
	switch n := p.(type) {
	case engine.ScanP:
		t, err := e.db.Table(n.Name)
		if err != nil {
			return nil, err
		}
		return e.scanStream(t, n.Name, parent.Child("Scan", n.Name)), nil
	case engine.WindowP:
		st := parent.Child("Window", n.T.String())
		var in *pstream
		if scan, ok := n.In.(engine.ScanP); ok && n.Prune {
			// Zone-map prune before the morsel split: a scan whose endpoint
			// envelope is disjoint from the window is skipped outright, and
			// a begin-sorted scan is cut to the prefix that can overlap it —
			// the morsel counters then divide only the surviving rows.
			t, err := e.db.Table(scan.Name)
			if err != nil {
				return nil, err
			}
			hi, skip := engine.PruneWindowScan(t, n.T)
			if skip {
				t = &engine.Table{Schema: t.Schema}
			} else {
				t = t.Prefix(hi)
			}
			in = e.scanStream(t, scan.Name, st.Child("Scan", scan.Name))
		} else {
			var err error
			in, err = e.build(n.In, st)
			if err != nil {
				return nil, err
			}
		}
		out, err := e.mapStream(in, func(it engine.RowIter) (engine.RowIter, error) {
			return engine.NewWindowIter(it, n.T), nil
		})
		if err != nil {
			return nil, err
		}
		return obsStream(e.injectStream("window", out), st), nil
	case engine.FilterP:
		st := parent.Child("Filter", "")
		in, err := e.build(n.In, st)
		if err != nil {
			return nil, err
		}
		out, err := e.mapStream(in, func(it engine.RowIter) (engine.RowIter, error) {
			return engine.NewFilterIter(it, n.Pred)
		})
		if err != nil {
			return nil, err
		}
		return obsStream(e.injectStream("filter", out), st), nil
	case engine.ProjectP:
		st := parent.Child("Project", "")
		in, err := e.build(n.In, st)
		if err != nil {
			return nil, err
		}
		out, err := e.mapStream(in, func(it engine.RowIter) (engine.RowIter, error) {
			return engine.NewProjectIter(it, n.Exprs)
		})
		if err != nil {
			return nil, err
		}
		return obsStream(e.injectStream("project", out), st), nil
	case engine.JoinP:
		return e.buildJoin(n, parent)
	case engine.UnionP:
		st := parent.Child("Union", "")
		l, err := e.build(n.L, st)
		if err != nil {
			return nil, err
		}
		r, err := e.build(n.R, st)
		if err != nil {
			l.close()
			return nil, err
		}
		if l.seq != nil && r.seq != nil {
			u, err := engine.NewUnionIter(l.seq, r.seq)
			if err != nil {
				return nil, err
			}
			return obsStream(&pstream{seq: u, schema: u.Schema()}, st), nil
		}
		// Pair the fragments of both sides: fragment i concatenates
		// l_i and r_i, so the union itself needs no extra exchange.
		lp, rp := e.partition(l, st), e.partition(r, st)
		parts := make([]engine.RowIter, len(lp))
		for i := range parts {
			u, err := engine.NewUnionIter(lp[i], rp[i])
			if err != nil {
				for j := i + 1; j < len(lp); j++ {
					lp[j].Close()
					rp[j].Close()
				}
				for j := 0; j < i; j++ {
					parts[j].Close()
				}
				return nil, err
			}
			parts[i] = u
		}
		return obsStream(&pstream{parts: parts, schema: parts[0].Schema()}, st), nil
	case engine.DiffP:
		return e.buildDiff(n, parent)
	case engine.AggP:
		return e.buildAgg(n, parent)
	case engine.CoalesceP:
		return e.buildCoalesce(n, parent)
	case engine.SortP:
		// e.table materializes into a private table, so sorting in place
		// is safe — no stored table is mutated and no copy is needed.
		st := parent.Child("Sort", "enforcer")
		done := st.Span()
		in, err := e.table(n.In, st)
		if err != nil {
			done()
			return nil, err
		}
		in.SortByEndpoints()
		done()
		return obsStream(&pstream{seq: engine.NewTableIter(in), schema: in.Schema}, st), nil
	default:
		return nil, fmt.Errorf("parallel: unknown plan node %T", p)
	}
}

// dataIdx returns the indices of all data columns of a period schema —
// the partitioning key of coalesce and difference, whose groups are the
// value-equivalent rows.
func dataIdx(schema tuple.Schema) []int {
	idx := make([]int, schema.Arity()-2)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// buildCoalesce compiles the coalesce operator. With multiple workers
// the input is hash-partitioned on the full data tuple and every worker
// materializes its partition and coalesces it independently —
// value-equivalent groups never straddle partitions, so the merged
// output is multiset-identical to the sequential sweep.
func (e *executor) buildCoalesce(n engine.CoalesceP, parent *engine.OpStats) (*pstream, error) {
	st := parent.Child("Coalesce", "")
	if e.workers > 1 {
		in, err := e.build(n.In, st)
		if err != nil {
			return nil, err
		}
		schema := in.schema
		parts := e.hashPartition(in.sources(), dataIdx(schema), st)
		out := make([]engine.RowIter, len(parts))
		for i, part := range parts {
			out[i] = e.newLazySweepIter(part, schema, st, func(t *engine.Table) (*engine.Table, error) {
				return engine.Coalesce(t, n.Impl), nil
			})
		}
		return obsStream(e.injectStream("coalesce", &pstream{parts: out, schema: schema}), st), nil
	}
	in, err := e.table(n.In, st)
	if err != nil {
		return nil, err
	}
	done := st.Span()
	out := engine.Coalesce(in, n.Impl)
	done()
	return obsStream(&pstream{seq: engine.NewTableIter(out), schema: out.Schema}, st), nil
}

// buildAgg compiles split-based aggregation. Grouped aggregation with
// multiple workers hash-partitions the input on the grouping columns
// and every worker runs an independent split/aggregate sweep over its
// materialized partition — the sweep never crosses group boundaries,
// so the merged output is multiset-identical. Global aggregation (a
// single group) cannot be partitioned and runs sequentially over the
// merged input.
func (e *executor) buildAgg(n engine.AggP, parent *engine.OpStats) (*pstream, error) {
	dom := e.db.Domain()
	st := parent.Child("Agg", aggDetail(n))
	if e.workers > 1 && len(n.GroupBy) > 0 {
		in, err := e.build(n.In, st)
		if err != nil {
			return nil, err
		}
		inSchema := in.schema
		data := tuple.Schema{Cols: inSchema.Cols[:inSchema.Arity()-2]}
		keyIdx := make([]int, len(n.GroupBy))
		for i, g := range n.GroupBy {
			idx := data.Index(g)
			if idx < 0 {
				in.close()
				return nil, fmt.Errorf("parallel: unknown group-by column %q", g)
			}
			keyIdx[i] = idx
		}
		// Resolve the output schema (and surface column errors) before
		// spawning fragments, by aggregating an empty input once.
		empty, err := engine.TemporalAggregate(&engine.Table{Schema: inSchema}, n.GroupBy, n.Aggs, n.PreAgg, dom)
		if err != nil {
			in.close()
			return nil, err
		}
		parts := e.hashPartition(in.sources(), keyIdx, st)
		out := make([]engine.RowIter, len(parts))
		for i, part := range parts {
			// Errors were validated against an empty input above, so a
			// failure here is either a failed partition drain or a genuine
			// executor bug — both propagate through Err instead of yielding
			// a silently empty partition.
			out[i] = e.newLazySweepIter(part, empty.Schema, st, func(t *engine.Table) (*engine.Table, error) {
				return engine.TemporalAggregate(t, n.GroupBy, n.Aggs, n.PreAgg, dom)
			})
		}
		return obsStream(e.injectStream("agg", &pstream{parts: out, schema: empty.Schema}), st), nil
	}
	in, err := e.table(n.In, st)
	if err != nil {
		return nil, err
	}
	done := st.Span()
	out, err := engine.TemporalAggregate(in, n.GroupBy, n.Aggs, n.PreAgg, dom)
	done()
	if err != nil {
		return nil, err
	}
	return obsStream(&pstream{seq: engine.NewTableIter(out), schema: out.Schema}, st), nil
}

// aggDetail names the split flavor of an aggregation.
func aggDetail(n engine.AggP) string {
	if n.PreAgg {
		return "pre-agg"
	}
	return "naive"
}

// buildDiff compiles snapshot-reducible difference. With multiple
// workers both inputs are hash-partitioned on the full data tuple with
// the same hash, so value-equivalent groups of both sides meet in the
// same worker and each worker computes an independent fused diff sweep
// over its two materialized partitions.
func (e *executor) buildDiff(n engine.DiffP, parent *engine.OpStats) (*pstream, error) {
	st := parent.Child("Diff", "")
	if e.workers > 1 {
		l, err := e.build(n.L, st)
		if err != nil {
			return nil, err
		}
		r, err := e.build(n.R, st)
		if err != nil {
			l.close()
			return nil, err
		}
		if l.schema.Arity() != r.schema.Arity() {
			l.close()
			r.close()
			return nil, fmt.Errorf("parallel: difference-incompatible arities %d and %d", l.schema.Arity(), r.schema.Arity())
		}
		schema := l.schema
		keyIdx := dataIdx(schema)
		lp := e.hashPartition(l.sources(), keyIdx, st)
		rp := e.hashPartition(r.sources(), keyIdx, st)
		out := make([]engine.RowIter, len(lp))
		for i := range lp {
			out[i] = e.newLazyDiffIter(lp[i], rp[i], schema, st)
		}
		return obsStream(e.injectStream("diff", &pstream{parts: out, schema: schema}), st), nil
	}
	l, err := e.table(n.L, st)
	if err != nil {
		return nil, err
	}
	r, err := e.table(n.R, st)
	if err != nil {
		return nil, err
	}
	done := st.Span()
	out, err := engine.TemporalDiff(l, r)
	done()
	if err != nil {
		return nil, err
	}
	return obsStream(&pstream{seq: engine.NewTableIter(out), schema: out.Schema}, st), nil
}

// buildJoin compiles the temporal join: the build side is drained once
// into a shared immutable hash table, then every probe fragment streams
// its partition of the other input against it. Size-based build-side
// selection builds on the left input when stored-table cardinality
// estimates prove it smaller; the default build side stays the right
// input. Joins without an equality conjunct fall back to the sequential
// endpoint-sorted overlap sweep (which drains both inputs anyway),
// still fed by parallel children.
func (e *executor) buildJoin(n engine.JoinP, parent *engine.OpStats) (*pstream, error) {
	st := parent.Child("Join", "")
	l, err := e.build(n.L, st)
	if err != nil {
		return nil, err
	}
	r, err := e.build(n.R, st)
	if err != nil {
		l.close()
		return nil, err
	}
	prep, err := engine.PrepareJoin(l.dataSchema(), r.dataSchema(), n.Pred)
	if err != nil {
		l.close()
		r.close()
		return nil, err
	}
	if !prep.HasEquiKey() {
		if st != nil {
			st.Detail = "overlap-sweep"
		}
		j, err := engine.NewJoinIter(e.merge(l, st), e.merge(r, st), n.Pred)
		if err != nil {
			return nil, err
		}
		if err := e.ctx.Err(); err != nil {
			j.Close()
			return nil, err
		}
		return obsStream(e.injectStream("join", &pstream{seq: j, schema: j.Schema()}), st), nil
	}
	// Drain the build side eagerly (as the sequential engine does); a
	// canceled context surfaces as an error rather than a silently
	// truncated hash table. The drain happens outside any Next, so an
	// explicit span attributes its cost to the join node.
	// The planner may have pinned the build side (and a pre-sizing hint)
	// on the plan node; with BuildAuto the executor keeps its own
	// estimate-based pick.
	var buildLeft bool
	switch n.Build {
	case engine.BuildLeftSide:
		buildLeft = true
	case engine.BuildRightSide:
		buildLeft = false
	default:
		buildLeft = engine.BuildLeftSmaller(e.db.EstimateRows(n.L), e.db.EstimateRows(n.R))
	}
	var jb *engine.JoinBuild
	var probe *pstream
	var buildArity int
	done := st.Span()
	if buildLeft {
		if st != nil {
			st.Detail = "hash build=left"
		}
		jb = prep.BuildLeftSized(e.merge(l, st), n.BuildHint)
		probe = r
		buildArity = l.schema.Arity()
	} else {
		if st != nil {
			st.Detail = "hash build=right"
		}
		jb = prep.BuildSized(e.merge(r, st), n.BuildHint)
		probe = l
		buildArity = r.schema.Arity()
	}
	done()
	// A failed build drain means a truncated hash table: the join must
	// not run over it. The drain error wins over the bare ctx error (it
	// is more specific); both fail the build here.
	if err := engine.FirstErr(jb.Err(), e.ctx.Err()); err != nil {
		probe.close()
		return nil, err
	}
	// The materialized build side is tracked query state: charge it
	// against the memory budget before fanning probes out.
	if err := e.gov.ChargeMem(jb.Rows() * engine.ApproxRowBytes(buildArity)); err != nil {
		probe.close()
		return nil, err
	}
	if e.workers <= 1 {
		it := jb.Probe(e.merge(probe, st))
		return obsStream(e.injectStream("join", &pstream{seq: it, schema: it.Schema()}), st), nil
	}
	pp := e.partition(probe, st)
	parts := make([]engine.RowIter, len(pp))
	for i, part := range pp {
		parts[i] = jb.Probe(part)
	}
	return obsStream(e.injectStream("join", &pstream{parts: parts, schema: prep.Schema()}), st), nil
}

// scanStream builds the scan side of a pstream over a stored (or
// pruned-prefix) table: the shared construction of the ScanP case and
// the zone-map-pruned windowed scan.
func (e *executor) scanStream(t *engine.Table, name string, st *engine.OpStats) *pstream {
	if e.workers <= 1 {
		// The sequential path runs entirely on the consumer's
		// goroutine, so this ctx probe (amortized per batch / per
		// morsel of rows) is its only mid-stream cancellation point:
		// blocking drains above it (sort enforcers, hash-join builds)
		// end early when it fires instead of running to completion.
		seq := engine.NewCtxIter(e.ctx, engine.NewTableIter(t), e.morsel)
		return obsStream(e.injectStream("scan:"+name, &pstream{seq: seq, schema: t.Schema}), st)
	}
	ctr := new(atomic.Int64)
	parts := make([]engine.RowIter, e.workers)
	for i := range parts {
		parts[i] = &morselTableIter{t: t, ctr: ctr, size: e.morsel}
	}
	return obsStream(e.injectStream("scan:"+name, &pstream{parts: parts, schema: t.Schema}), st)
}

// mapStream wraps every fragment (or the sequential iterator) of in with
// a streaming operator constructor. wrap takes ownership of its input on
// error, matching the engine constructors' contract.
func (e *executor) mapStream(in *pstream, wrap func(engine.RowIter) (engine.RowIter, error)) (*pstream, error) {
	if in.seq != nil {
		it, err := wrap(in.seq)
		if err != nil {
			return nil, err
		}
		return &pstream{seq: it, schema: it.Schema()}, nil
	}
	out := make([]engine.RowIter, len(in.parts))
	for i, part := range in.parts {
		it, err := wrap(part)
		if err != nil {
			for j := 0; j < i; j++ {
				out[j].Close()
			}
			for j := i + 1; j < len(in.parts); j++ {
				in.parts[j].Close()
			}
			return nil, err
		}
		out[i] = it
	}
	return &pstream{parts: out, schema: out[0].Schema()}, nil
}

// table materializes a subplan — the input boundary of the blocking
// operators — and charges its rows to parent (see charge). The subplan
// itself still runs with parallel fragments; a canceled context
// surfaces as an error rather than a truncated table.
func (e *executor) table(p engine.Plan, parent *engine.OpStats) (*engine.Table, error) {
	s, err := e.build(p, parent)
	if err != nil {
		return nil, err
	}
	it := e.merge(s, parent)
	defer it.Close()
	t, err := engine.MaterializeErr(it)
	if err := engine.FirstErr(err, e.errOf(), e.ctx.Err()); err != nil {
		return nil, err
	}
	if err := e.charge(parent, int64(t.Len()), t.Schema.Arity()); err != nil {
		return nil, err
	}
	return t, nil
}
