package parallel

import (
	"snapk/internal/engine"
	"snapk/internal/tuple"
)

// lazySweepIter runs one blocking sweep operator over one hash
// partition, inside the worker fragment that drains it: the partition
// is materialized on first Next (concurrently across workers, since
// every fragment runs in its own merge-producer goroutine), the sweep
// runs on it, and the result streams out. This is what turns the
// blocking sweeps into W-wide parallel operators: the partitioning key
// is the sweep's group key, so the per-partition sweeps are independent
// and their merged outputs form exactly the sequential result multiset.
// The materialized rows are charged to the sweep's node st (see
// executor.charge), so the memory budget and max_state see every
// partition.
//
// A failed partition drain, a tripped memory budget or a failing fn
// ends the partition's stream with NO rows — a sweep over a truncated
// partition would be a silently wrong multiset — and the error
// propagates through Err per the error-carrying iterator protocol.
type lazySweepIter struct {
	e      *executor
	st     *engine.OpStats
	in     engine.RowIter
	schema tuple.Schema
	fn     func(*engine.Table) (*engine.Table, error)
	out    engine.RowIter
	err    error
}

// newLazySweepIter wraps one partition with a sweep function; schema is
// the sweep's output schema and st the sweep's stats node.
func (e *executor) newLazySweepIter(in engine.RowIter, schema tuple.Schema, st *engine.OpStats, fn func(*engine.Table) (*engine.Table, error)) engine.RowIter {
	return &lazySweepIter{e: e, st: st, in: in, schema: schema, fn: fn}
}

func (it *lazySweepIter) Schema() tuple.Schema { return it.schema }

func (it *lazySweepIter) Next() (tuple.Tuple, bool) {
	if it.err != nil {
		return nil, false
	}
	if it.out == nil {
		t, err := engine.MaterializeErr(it.in)
		if err == nil {
			err = it.e.charge(it.st, int64(t.Len()), t.Schema.Arity())
		}
		if err == nil {
			t, err = it.fn(t)
		}
		if err != nil {
			it.err = err
			return nil, false
		}
		it.out = engine.NewTableIter(t)
	}
	return it.out.Next()
}

// Err reports the partition drain or sweep failure, else delegates to
// the input (which may have recorded an error this iterator never
// observed because it was closed before the first Next).
func (it *lazySweepIter) Err() error { return engine.FirstErr(it.err, engine.IterErr(it.in)) }

// Close releases the input and, when Next already materialized the
// sweep, the result iterator too.
func (it *lazySweepIter) Close() {
	it.in.Close()
	if it.out != nil {
		it.out.Close()
	}
}

// lazyDiffIter is the two-input form of lazySweepIter for the fused
// difference sweep: both sides of one hash partition are materialized
// on first Next, charged to st, and diffed. A failed drain on either
// side, a tripped memory budget or a failing diff ends the stream with
// no rows and surfaces through Err.
type lazyDiffIter struct {
	e      *executor
	st     *engine.OpStats
	l, r   engine.RowIter
	schema tuple.Schema
	out    engine.RowIter
	err    error
}

func (e *executor) newLazyDiffIter(l, r engine.RowIter, schema tuple.Schema, st *engine.OpStats) engine.RowIter {
	return &lazyDiffIter{e: e, st: st, l: l, r: r, schema: schema}
}

func (it *lazyDiffIter) Schema() tuple.Schema { return it.schema }

func (it *lazyDiffIter) Next() (tuple.Tuple, bool) {
	if it.err != nil {
		return nil, false
	}
	if it.out == nil {
		lt, lErr := engine.MaterializeErr(it.l)
		rt, rErr := engine.MaterializeErr(it.r)
		err := engine.FirstErr(lErr, rErr)
		if err == nil {
			err = it.e.charge(it.st, int64(lt.Len()+rt.Len()), it.schema.Arity())
		}
		var t *engine.Table
		if err == nil {
			// Arity compatibility, checked before the partitions were
			// spawned, is TemporalDiff's only failure mode; a failure here
			// still propagates through Err rather than yielding a silently
			// empty partition.
			t, err = engine.TemporalDiff(lt, rt)
		}
		if err != nil {
			it.err = err
			return nil, false
		}
		it.out = engine.NewTableIter(t)
	}
	return it.out.Next()
}

// Err reports the drain or diff failure, else delegates to the inputs.
func (it *lazyDiffIter) Err() error {
	return engine.FirstErr(it.err, engine.IterErr(it.l), engine.IterErr(it.r))
}

// Close releases both inputs and, when Next already materialized the
// diff, the result iterator too.
func (it *lazyDiffIter) Close() {
	it.l.Close()
	it.r.Close()
	if it.out != nil {
		it.out.Close()
	}
}
