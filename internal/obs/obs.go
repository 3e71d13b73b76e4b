// Package obs is the process-wide observability registry: cheap,
// always-on counters aggregated across every query the process runs —
// queries executed, rows they emitted, and the sweep operators of the
// executed plans. Queries count when
// they run (rewrite.Stream and rewrite.Run), never when they are only
// planned, so EXPLAIN leaves the registry unchanged. Unlike the
// per-query engine.Collector, which must be attached explicitly, the
// registry is updated unconditionally; its counters are plain atomics
// updated at per-query (not per-row) granularity, so the cost is
// unmeasurable. Surfaced by `snapq -explain` / `snapq -analyze`.
package obs

import (
	"fmt"
	"sync/atomic"
)

// Registry holds the process-wide counters. The zero value is ready to
// use; most callers share Default.
type Registry struct {
	// QueriesRun counts snapshot queries executed.
	QueriesRun atomic.Int64
	// RowsEmitted counts rows the executed queries delivered, flushed
	// once per query at end of stream or Close (never one atomic per
	// row).
	RowsEmitted atomic.Int64
	// Sweeps counts the sweep operators (coalesce, difference,
	// pre-aggregated split) in the executed plans.
	Sweeps atomic.Int64
}

// Default is the process-wide registry instance.
var Default = &Registry{}

// Snapshot is a consistent-enough point-in-time copy of the counters
// (each counter is read atomically; the set is not a transaction).
type Snapshot struct {
	QueriesRun  int64
	RowsEmitted int64
	Sweeps      int64
}

// Snapshot copies the current counter values.
func (r *Registry) Snapshot() Snapshot {
	return Snapshot{
		QueriesRun:  r.QueriesRun.Load(),
		RowsEmitted: r.RowsEmitted.Load(),
		Sweeps:      r.Sweeps.Load(),
	}
}

// String renders the snapshot as the one-line summary the CLIs print.
func (s Snapshot) String() string {
	return fmt.Sprintf("queries=%d rows_emitted=%d sweeps=%d", s.QueriesRun, s.RowsEmitted, s.Sweeps)
}
