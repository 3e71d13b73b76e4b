package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
)

// batchSizeCap bounds the batch experiment input: the acceptance
// measurement of the batch-vs-per-row study is the 50k-row input, and larger configured Fig5 sizes add minutes without changing
// the comparison.
const batchSizeCap = 50000

// batchVariant is one pipeline measured by the batch experiment, once
// per drive mode (batch NextBatch vs per-row Next ablation).
type batchVariant struct {
	name string
	db   *engine.DB
	plan engine.Plan
	par  int // exchange workers; 0 = sequential streaming engine
}

// batchVariants are the hot converted pipelines over the n-row
// coalescing and difference workloads: the pure filter/project chain
// (where the per-row virtual-call tax is most visible), the three
// sweeps, and the exchange transport.
func batchVariants(n int) []batchVariant {
	db := coalesceDB(n)
	scan := engine.ScanP{Name: "sal"}
	cheap := engine.FilterP{
		// salaries are 40000..49000, so about half the rows survive —
		// the filter does real work without starving the pipeline above.
		Pred: algebra.Lt(algebra.Col("salary"), algebra.IntC(45000)),
		In:   scan,
	}
	return []batchVariant{
		{name: "filter-project", db: db, plan: engine.ProjectP{
			Exprs: []algebra.NamedExpr{{Name: "emp_no", E: algebra.Col("emp_no")}},
			In:    cheap,
		}},
		{name: "coalesce", db: db, plan: engine.CoalesceP{In: scan}},
		{name: "agg", db: db, plan: aggPlan(scan)},
		{name: "diff", db: diffDB(n), plan: engine.DiffP{L: engine.ScanP{Name: "l"}, R: engine.ScanP{Name: "r"}}},
		{name: fmt.Sprintf("coalesce-parallel-x%d", DefaultWorkers), db: db,
			plan: engine.CoalesceP{In: scan}, par: DefaultWorkers},
	}
}

// Batch measures the batch-at-a-time hop against the per-row Volcano
// ablation on the hot pipelines. Both drives consume the SAME physical plan; only the drain
// protocol (and, for the parallel variant, the exchange transport)
// differs, so the delta is exactly the per-row pull tax the batch
// protocol amortizes. The acceptance bar is batch ≤ per-row at the
// 50k-row input.
func Batch(w io.Writer, sc Scale, rep *Report) error {
	tw := NewTable("rows", "variant", "per-row (s)", "batch (s)", "speedup", "out rows")
	for _, n := range sc.Fig5Sizes {
		if n > batchSizeCap {
			// Not silently: the report must show which configured sizes
			// were not measured.
			fmt.Fprintf(w, "batch: skipping configured size %d (cap %d)\n", n, batchSizeCap)
			continue
		}
		for _, v := range batchVariants(n) {
			perRow, _, rowsPerRow, err := runBatchVariant(v, sc.Runs, false)
			if err != nil {
				return fmt.Errorf("batch %s (per-row): %w", v.name, err)
			}
			batched, allocs, rowsBatch, err := runBatchVariant(v, sc.Runs, true)
			if err != nil {
				return fmt.Errorf("batch %s (batch): %w", v.name, err)
			}
			if rowsBatch != rowsPerRow {
				return fmt.Errorf("batch %s: drives disagree on cardinality (%d per-row vs %d batch)",
					v.name, rowsPerRow, rowsBatch)
			}
			speedup := perRow.Seconds() / batched.Seconds()
			tw.AddRow(fmt.Sprintf("%d", n), v.name, FormatDuration(perRow),
				FormatDuration(batched), fmt.Sprintf("%.2fx", speedup), fmt.Sprintf("%d", rowsBatch))
			rep.AddDetail("batch", fmt.Sprintf("%s/perrow/rows=%d", v.name, n), perRow, 0, int64(rowsPerRow), nil)
			rep.AddDetail("batch", fmt.Sprintf("%s/batch/rows=%d", v.name, n), batched, allocs, int64(rowsBatch),
				map[string]float64{"speedup": speedup})
		}
	}
	_, err := tw.WriteTo(w)
	return err
}

// runBatchVariant times one variant under one drive mode and returns
// its median runtime, median allocations and output cardinality. The
// per-row mode disables the batch protocol end to end: the parallel
// executor runs its per-row ablation (BatchSize -1) and the sequential
// root is wrapped in engine.PerRow, so engine-internal consumers cannot
// sneak back onto the batch path.
func runBatchVariant(v batchVariant, runs int, batch bool) (d time.Duration, allocs float64, rows int, err error) {
	d, allocs, err = MedianAllocs(runs, func() error {
		rows = 0
		var it engine.RowIter
		var err error
		if v.par > 1 {
			bs := 0
			if !batch {
				bs = -1
			}
			it, err = parallel.Exec(context.Background(), v.db, v.plan, parallel.Options{Workers: v.par, BatchSize: bs})
		} else {
			it, err = v.db.ExecStream(v.plan)
			if err == nil && !batch {
				it = engine.PerRow(it)
			}
		}
		if err != nil {
			return err
		}
		defer it.Close()
		if batch {
			bi, ok := it.(engine.BatchIter)
			if !ok {
				return fmt.Errorf("root %T is not batch-capable", it)
			}
			b := engine.NewRowBatch(engine.DefaultBatchSize)
			for bi.NextBatch(b) {
				rows += b.Len()
			}
		} else {
			for {
				if _, ok := it.Next(); !ok {
					break
				}
				rows++
			}
		}
		if rows == 0 {
			return fmt.Errorf("empty result")
		}
		return nil
	})
	return d, allocs, rows, err
}
