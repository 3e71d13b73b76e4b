// Package obs is the process-wide observability registry: cheap,
// always-on counters aggregated across every query the process runs —
// queries executed, rows they emitted, and the sweep-mode choices of the
// executed plans (streaming / enforced / blocking). Queries count when
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
	// SweepStreaming / SweepEnforced / SweepBlocking count the physical
	// form of each sweep operator in the executed plans: streaming over
	// naturally ordered input, streaming behind an inserted sort
	// enforcer, and the materializing sweep.
	SweepStreaming atomic.Int64
	SweepEnforced  atomic.Int64
	SweepBlocking  atomic.Int64
}

// Default is the process-wide registry instance.
var Default = &Registry{}

// CountSweep records one sweep-mode decision: streaming reports whether
// the sweep streams, enforced whether the order came from an inserted
// sort enforcer.
func (r *Registry) CountSweep(streaming, enforced bool) {
	switch {
	case !streaming:
		r.SweepBlocking.Add(1)
	case enforced:
		r.SweepEnforced.Add(1)
	default:
		r.SweepStreaming.Add(1)
	}
}

// Snapshot is a consistent-enough point-in-time copy of the counters
// (each counter is read atomically; the set is not a transaction).
type Snapshot struct {
	QueriesRun     int64
	RowsEmitted    int64
	SweepStreaming int64
	SweepEnforced  int64
	SweepBlocking  int64
}

// Snapshot copies the current counter values.
func (r *Registry) Snapshot() Snapshot {
	return Snapshot{
		QueriesRun:     r.QueriesRun.Load(),
		RowsEmitted:    r.RowsEmitted.Load(),
		SweepStreaming: r.SweepStreaming.Load(),
		SweepEnforced:  r.SweepEnforced.Load(),
		SweepBlocking:  r.SweepBlocking.Load(),
	}
}

// String renders the snapshot as the one-line summary the CLIs print.
func (s Snapshot) String() string {
	return fmt.Sprintf("queries=%d rows_emitted=%d sweeps{streaming=%d enforced=%d blocking=%d}",
		s.QueriesRun, s.RowsEmitted, s.SweepStreaming, s.SweepEnforced, s.SweepBlocking)
}
