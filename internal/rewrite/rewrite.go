// Package rewrite implements REWR (Fig 4 of Dignös et al., PVLDB 2019):
// the reduction of a snapshot-semantics query over ℕᵀ-relations to a
// non-temporal multiset plan over the PERIODENC encoding, executed by
// package engine.
//
// Two plan modes reproduce the §9 optimization study:
//
//   - ModeOptimized (the paper's middleware): coalesce is applied at most
//     once, as the final operator — justified by Lemma 6.1, which lets
//     C_K be pulled out of +KP, ·KP and the monus; aggregation and
//     difference use pre-aggregation intertwined with the split, and
//     their sweeps emit the unique encoding themselves, so a plan rooted
//     at one (see engine.Coalesced) needs no coalesce at all.
//   - ModeNaive (the strawman of §9's "preliminary experiments"):
//     coalesce after every rewritten operator, and split materialized
//     before aggregation without pre-aggregation.
package rewrite

import (
	"context"
	"fmt"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/obs"
	"snapk/internal/tuple"
)

// Mode selects the coalesce placement / split strategy.
type Mode int

const (
	// ModeOptimized applies pre-aggregation and at most one coalesce, at
	// the root, skipped where it would be the identity.
	ModeOptimized Mode = iota
	// ModeNaive coalesces after every operator and materializes splits.
	ModeNaive
)

// Options configures the rewriting.
type Options struct {
	Mode Mode
	// CoalesceImpl selects the physical coalescing implementation.
	CoalesceImpl engine.CoalesceImpl
	// SkipFinalCoalesce omits the outermost coalesce; the result is then
	// snapshot-equivalent but, unless the plan emits it anyway (an
	// aggregation or difference root, see engine.Coalesced, which never
	// gets that coalesce), not the unique encoding. Used only by
	// benchmarks that want to isolate operator cost.
	SkipFinalCoalesce bool
	// Window restricts the query to the time window [Begin, End): the
	// timeslice τ_T, applied with clip semantics (row validity intervals
	// are intersected with the window; rows not overlapping it are
	// dropped). The zero value — an invalid interval — means no
	// restriction. Without Planner.Pushdown the window is applied once at
	// the plan root; with it the pushdown phase moves it toward the scans
	// under the legality rules documented in pushdown.go.
	Window interval.Interval
	// Planner enables the phased cost-aware planner's knobs (window
	// pushdown, zone-map pruning, hash pre-sizing, adaptive worker
	// count), each independently ablatable. The zero value disables
	// every phase beyond the logical rewrite, which always includes the
	// selection pushdown. See PlannerKnobs.
	Planner PlannerKnobs
	// Materialize executes the plan on the node-at-a-time materializing
	// executor (engine.DB.Exec) instead of the default streaming iterator
	// engine (engine.DB.ExecStream). Kept as the ablation baseline for
	// the pipelining study; results are multiset-identical.
	Materialize bool
	// Parallelism is the number of worker goroutines per exchange when
	// the plan runs on the parallel execution subsystem
	// (internal/engine/parallel). Values <= 1 select the sequential
	// streaming engine. Ignored when Materialize is set. Results are
	// multiset-identical at every worker count.
	Parallelism int
	// BatchSize is the row capacity of the batch-at-a-time iterator hop
	// (engine.BatchIter): converted operators amortize the virtual
	// Next-call tax over BatchSize rows, and parallel exchanges hand
	// their transport batches through wholesale. Zero — the default —
	// ties the batch size to the exchange morsel size; a negative value
	// disables the batch protocol entirely (the per-row ablation,
	// restoring classic Volcano pull). Results are multiset-identical at
	// every setting.
	BatchSize int
	// Collect, when non-nil, enables EXPLAIN ANALYZE: Stream attaches the
	// executed plan's per-operator/per-fragment statistics tree under the
	// collector (one "result" node whose row count is exactly what the
	// cursor observes, with the operator tree beneath it). Nil — the
	// default — compiles every instrumentation hook to an identity no-op,
	// so the hot path is unchanged. Ignored by the materializing executor,
	// which has no iterators to instrument.
	Collect *engine.Collector
	// Limits configures the per-query resource governor: wall-clock
	// deadline, emitted-row limit and tracked-state memory budget. The
	// zero value (the default) disables governing entirely. A tripped
	// limit ends the stream and surfaces the governor's typed error
	// (engine.ErrRowLimit, engine.ErrMemBudget,
	// context.DeadlineExceeded) through the iterator's Err. Ignored by
	// the materializing executor.
	Limits engine.Limits
	// Inject, when non-nil, wraps the iterator built at each operator
	// and exchange boundary — the chaos fault-injection hook
	// (internal/chaos). Production queries leave it nil. Ignored by the
	// materializing executor.
	Inject engine.IterWrapper
}

// Rewrite reduces a snapshot query to a physical plan over the period
// encoding (the commuting diagram of Eq. 1). cat must resolve the data
// schemas of the base relations referenced by q. It is PlanQuery with
// the planner's decision record discarded — the entry point for callers
// that only need the plan.
func Rewrite(q algebra.Query, cat algebra.Catalog, opt Options) (engine.Plan, error) {
	p, _, err := PlanQuery(q, cat, opt)
	return p, err
}

// rewriter carries the per-Rewrite state: the options and, when the
// catalog is an engine database, the database the physical pass reads
// statistics from.
type rewriter struct {
	opt Options
	db  *engine.DB // nil when the catalog is not an engine database
}

func newRewriter(cat algebra.Catalog, opt Options) *rewriter {
	db, _ := cat.(*engine.DB)
	return &rewriter{opt: opt, db: db}
}

// coalesceOp wraps p in a coalesce operator.
func (rw *rewriter) coalesceOp(p engine.Plan) engine.Plan {
	return engine.CoalesceP{Impl: rw.opt.CoalesceImpl, In: p}
}

// maybeCoalesce wraps p in a coalesce operator in naive mode, mirroring
// the per-operator C(...) of the unoptimized Fig 4 rules.
func (rw *rewriter) maybeCoalesce(p engine.Plan) engine.Plan {
	if rw.opt.Mode == ModeNaive {
		return rw.coalesceOp(p)
	}
	return p
}

func (rw *rewriter) rewr(q algebra.Query) (engine.Plan, error) {
	switch n := q.(type) {
	case algebra.Rel:
		// REWR(R) = R: snapshot queries run directly over natively stored
		// period relations, no preprocessing.
		return engine.ScanP{Name: n.Name}, nil
	case algebra.Select:
		in, err := rw.rewr(n.In)
		if err != nil {
			return nil, err
		}
		return rw.maybeCoalesce(engine.FilterP{Pred: n.Pred, In: in}), nil
	case algebra.Project:
		in, err := rw.rewr(n.In)
		if err != nil {
			return nil, err
		}
		return rw.maybeCoalesce(engine.ProjectP{Exprs: n.Exprs, In: in}), nil
	case algebra.Join:
		l, err := rw.rewr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewr(n.R)
		if err != nil {
			return nil, err
		}
		return rw.maybeCoalesce(engine.JoinP{L: l, R: r, Pred: n.Pred}), nil
	case algebra.Union:
		l, err := rw.rewr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewr(n.R)
		if err != nil {
			return nil, err
		}
		return rw.maybeCoalesce(engine.UnionP{L: l, R: r}), nil
	case algebra.Diff:
		l, err := rw.rewr(n.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewr(n.R)
		if err != nil {
			return nil, err
		}
		return rw.maybeCoalesce(engine.DiffP{L: l, R: r}), nil
	case algebra.Agg:
		in, err := rw.rewr(n.In)
		if err != nil {
			return nil, err
		}
		p := engine.AggP{
			GroupBy: n.GroupBy,
			Aggs:    n.Aggs,
			PreAgg:  rw.opt.Mode == ModeOptimized,
			In:      in,
		}
		return rw.maybeCoalesce(p), nil
	default:
		return nil, fmt.Errorf("rewrite: unknown query node %T", q)
	}
}

// Run is the one-call middleware entry point: rewrite q and execute it on
// db, returning the coalesced period-encoded result. By default the plan
// runs on the streaming iterator engine, so Filter/Project/Union/join
// pipelines never materialize intermediates; Options.Materialize selects
// the operator-at-a-time executor instead and Options.Parallelism > 1
// the parallel exchange executor.
func Run(db *engine.DB, q algebra.Query, opt Options) (*engine.Table, error) {
	if opt.Materialize {
		p, err := Rewrite(q, db, opt)
		if err != nil {
			return nil, err
		}
		countExecuted(p)
		t, err := db.Exec(p)
		if err == nil {
			obs.Default.RowsEmitted.Add(int64(t.Len()))
		}
		return t, err
	}
	it, err := Stream(context.Background(), db, q, opt)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	t, err := engine.MaterializeErr(it)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Stream rewrites q and returns a pull-based row stream over the
// period-encoded result, without materializing it: the streaming cursor
// entry point behind snapk.DB.QueryRows. With Options.Parallelism > 1
// the plan runs on the parallel exchange executor; either way ctx
// cancellation tears the pipeline (and any fragment goroutines) down.
// The returned iterator carries the error-carrying protocol: a consumer
// that drains it to end-of-stream must check engine.IterErr before
// trusting the result (the snapdebug build asserts exactly this at the
// root). The caller must Close the returned iterator.
func Stream(ctx context.Context, db *engine.DB, q algebra.Query, opt Options) (engine.RowIter, error) {
	p, dec, err := PlanQuery(q, db, opt)
	if err != nil {
		return nil, err
	}
	// When collecting, the whole executed tree hangs under one "result"
	// node: its row count is exactly what the root cursor observes.
	var st *engine.OpStats
	if opt.Collect != nil {
		st = opt.Collect.Root.Child("result", "")
	}
	// The adaptive-workers decision only ever narrows the requested
	// parallelism: small estimated results don't pay worker startup and
	// exchange fan-in for rows that aren't there.
	workers := max(opt.Parallelism, 1)
	if dec.Workers > 0 {
		workers = min(workers, dec.Workers)
	}
	// The parallel executor also serves Parallelism <= 1: it degenerates
	// to the sequential streaming engine wrapped with ctx cancellation.
	it, err := parallel.Exec(ctx, db, p, parallel.Options{
		Workers:   workers,
		BatchSize: opt.BatchSize,
		Stats:     st,
		Gov:       engine.NewGovernor(opt.Limits),
		Inject:    opt.Inject,
	})
	if err != nil {
		return nil, err
	}
	countExecuted(p)
	return engine.CheckErrChecked("rewrite stream root", countRows(it)), nil
}

// countExecuted records a plan that is about to run in the process-wide
// registry: one query, and each of its sweep operators. Counting here
// rather than while planning keeps EXPLAIN, which plans without
// running, out of the counters.
func countExecuted(p engine.Plan) {
	obs.Default.QueriesRun.Add(1)
	obs.Default.Sweeps.Add(countSweeps(p))
}

// countSweeps returns the number of sweep operators in p: coalesces,
// differences and pre-aggregated splits (the naive split is a
// materialized split followed by hash aggregation, not a sweep).
func countSweeps(p engine.Plan) int64 {
	switch n := p.(type) {
	case engine.FilterP:
		return countSweeps(n.In)
	case engine.ProjectP:
		return countSweeps(n.In)
	case engine.JoinP:
		return countSweeps(n.L) + countSweeps(n.R)
	case engine.UnionP:
		return countSweeps(n.L) + countSweeps(n.R)
	case engine.DiffP:
		return 1 + countSweeps(n.L) + countSweeps(n.R)
	case engine.AggP:
		if n.PreAgg {
			return 1 + countSweeps(n.In)
		}
		return countSweeps(n.In)
	case engine.CoalesceP:
		return 1 + countSweeps(n.In)
	case engine.WindowP:
		return countSweeps(n.In)
	default:
		return 0
	}
}

// rowCounter counts the rows a query's root iterator delivers and adds
// them to the process-wide registry once, at end of stream or Close: a
// local increment per row (or per batch), never a per-row atomic.
type rowCounter struct {
	engine.RowIter
	n       int64
	flushed bool
}

// batchRowCounter is rowCounter over a batch-capable root, keeping the
// batch protocol visible to the consumer.
type batchRowCounter struct {
	*rowCounter
	bin engine.BatchIter
}

func countRows(it engine.RowIter) engine.RowIter {
	c := &rowCounter{RowIter: it}
	if bin, ok := it.(engine.BatchIter); ok {
		return batchRowCounter{rowCounter: c, bin: bin}
	}
	return c
}

func (c *rowCounter) Next() (tuple.Tuple, bool) {
	row, ok := c.RowIter.Next()
	if ok {
		c.n++
	} else {
		c.flush()
	}
	return row, ok
}

func (c *rowCounter) Err() error { return engine.IterErr(c.RowIter) }

func (c *rowCounter) Close() {
	c.flush()
	c.RowIter.Close()
}

func (c *rowCounter) flush() {
	if !c.flushed {
		c.flushed = true
		obs.Default.RowsEmitted.Add(c.n)
	}
}

func (c batchRowCounter) NextBatch(b *engine.RowBatch) bool {
	ok := c.bin.NextBatch(b)
	if ok {
		c.n += int64(b.Len())
	} else {
		c.flush()
	}
	return ok
}

// OutSchema returns the data schema of the result of q on db, mirroring
// algebra.OutSchema.
func OutSchema(db *engine.DB, q algebra.Query) (tuple.Schema, error) {
	return algebra.OutSchema(q, db)
}
