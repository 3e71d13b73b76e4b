package harness

import (
	"context"
	"fmt"
	"io"

	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
)

// obsSizeCap bounds the obs experiment input, like parstream: the
// overhead comparison does not change with larger inputs, it only takes
// longer to measure.
const obsSizeCap = 50000

// obsVariant is one workload measured by the obs experiment, run twice:
// collector-off (the production configuration, in which every
// instrumentation hook is an identity no-op) and collector-on (every
// operator, exchange and fragment wrapped in an ObsIter).
type obsVariant struct {
	name string
	db   *engine.DB
	plan engine.Plan
	par  int // exchange workers; 0 = sequential streaming engine
}

// Obs measures the cost of the EXPLAIN ANALYZE collector on the
// coalesce and diff workloads. The collector-off runs ARE the production path —
// they exercise the nil-stats branches the instrumented executors ship
// with — so comparing them against collector-on prices the per-row
// counters, and the off-vs-on ratio is the number the acceptance
// criterion ("collection off costs nothing") watches. The parallel
// variant additionally prices the exchange batch/wait/skew counters.
func Obs(w io.Writer, sc Scale, rep *Report) error {
	n := 0
	for _, s := range sc.Fig5Sizes {
		if s <= obsSizeCap && s > n {
			n = s
		}
	}
	if n == 0 {
		n = 1000
	}
	sweepDB := coalesceDB(n)
	variants := []obsVariant{
		{name: fmt.Sprintf("coalesce/rows=%d", n), db: sweepDB,
			plan: engine.CoalesceP{In: engine.ScanP{Name: "sal"}}},
		{name: fmt.Sprintf("diff/rows=%d", n), db: diffDB(n),
			plan: engine.DiffP{L: engine.ScanP{Name: "l"}, R: engine.ScanP{Name: "r"}}},
		{name: fmt.Sprintf("coalesce-parallel-x%d/rows=%d", DefaultWorkers, n), db: sweepDB,
			plan: engine.CoalesceP{In: engine.ScanP{Name: "sal"}}, par: DefaultWorkers},
	}

	tw := NewTable("variant", "collector", "median (s)", "allocs/op", "on/off")
	for _, v := range variants {
		rows := 0
		measure := func(collect bool) error {
			var root *engine.OpStats
			if collect {
				root = engine.NewCollector().Root
			}
			var it engine.RowIter
			var err error
			if v.par > 1 {
				it, err = parallel.Exec(context.Background(), v.db, v.plan, parallel.Options{Workers: v.par, Stats: root})
			} else {
				it, err = v.db.ExecStreamObs(v.plan, root)
			}
			if err != nil {
				return err
			}
			defer it.Close()
			t, merr := engine.MaterializeErr(it)
			if merr != nil {
				return merr
			}
			rows = t.Len()
			if rows == 0 {
				return fmt.Errorf("empty result")
			}
			return nil
		}
		offD, offAllocs, err := MedianAllocs(sc.Runs, func() error { return measure(false) })
		if err != nil {
			return fmt.Errorf("obs %s: %w", v.name, err)
		}
		onD, onAllocs, err := MedianAllocs(sc.Runs, func() error { return measure(true) })
		if err != nil {
			return fmt.Errorf("obs %s (collector on): %w", v.name, err)
		}
		overhead := onD.Seconds() / offD.Seconds()
		tw.AddRow(v.name, "off", FormatDuration(offD), fmt.Sprintf("%.0f", offAllocs), "")
		tw.AddRow(v.name, "on", FormatDuration(onD), fmt.Sprintf("%.0f", onAllocs), fmt.Sprintf("%.2fx", overhead))
		rep.AddDetail("obs", v.name+"/collector=off", offD, offAllocs, int64(rows), nil)
		rep.AddDetail("obs", v.name+"/collector=on", onD, onAllocs, int64(rows),
			map[string]float64{"overhead": overhead})
	}
	_, err := tw.WriteTo(w)
	return err
}
