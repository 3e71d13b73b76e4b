package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"snapk"
	"snapk/internal/engine"
)

// state is one loaded database with the generated input it came from.
type state struct {
	data   *engine.DB
	db     *snapk.DB
	tables map[string]*snapk.Table
}

// setupTiming splits one set-up into its parts.
type setupTiming struct {
	gen, load, warmup time.Duration
	rows              int
}

func (s setupTiming) total() time.Duration { return s.gen + s.load + s.warmup }

// setup generates the workload's input, loads it through Table.Insert and
// runs one warm-up round, timing each part.
func setup(w *workloadDef, seed int64) (*state, setupTiming, error) {
	// Collect the previous set-up's garbage before the clock starts.
	runtime.GC()
	var tm setupTiming
	t0 := time.Now()
	data := w.generate(seed)
	t1 := time.Now()
	db, tables, rows, err := load(w, data)
	if err != nil {
		return nil, tm, err
	}
	t2 := time.Now()
	st := &state{data: data, db: db, tables: tables}
	// The warm-up round is timed query by query, like the measured phase,
	// so the collections between queries stay off its clock.
	var warm time.Duration
	var buf []resultRow
	for _, o := range w.warmup(seed) {
		runtime.GC()
		var d time.Duration
		if buf, _, d, err = st.query(o, buf[:0]); err != nil {
			return nil, tm, fmt.Errorf("warm-up %s: %w", o.tmpl, err)
		}
		warm += d
		clear(buf)
	}
	tm = setupTiming{gen: t1.Sub(t0), load: t2.Sub(t1), warmup: warm, rows: rows}
	return st, tm, nil
}

// query runs o through QueryRows and drains the cursor the way a client
// keeps a result: every row's Values and Period are appended to buf. It
// returns the rows, the time from the QueryRows call to the return of
// the first Next, and the time until the cursor was drained.
func (st *state) query(o *op, buf []resultRow) ([]resultRow, time.Duration, time.Duration, error) {
	n0 := len(buf)
	t0 := time.Now()
	rows, err := st.db.QueryRows(context.Background(), o.sql)
	if err != nil {
		return buf, 0, 0, err
	}
	var first time.Duration
	for rows.Next() {
		if len(buf) == n0 {
			first = time.Since(t0)
		}
		b, e := rows.Period()
		buf = append(buf, resultRow{vals: rows.Values(), begin: b, end: e})
	}
	err = rows.Err()
	rows.Close()
	total := time.Since(t0)
	if len(buf) == n0 {
		// The first Next found no row.
		first = total
	}
	return buf, first, total, err
}

// write applies a write op through the public Table API and checks the
// number of rows it reports affected.
func (st *state) write(o *op) error {
	t, ok := st.tables[o.table]
	if !ok {
		return fmt.Errorf("unknown table %s", o.table)
	}
	switch o.kind {
	case opInsert:
		return t.Insert(o.begin, o.end, o.values...)
	case opUpdate, opDelete:
		var n int
		var err error
		if o.kind == opUpdate {
			n, err = t.Update(o.begin, o.end, o.column, o.value, o.where)
		} else {
			n, err = t.Delete(o.begin, o.end, o.where)
		}
		if err == nil && n != o.affected {
			err = fmt.Errorf("%s [%d, %d) WHERE %s affected %d rows, want %d", o.tmpl, o.begin, o.end, o.where, n, o.affected)
		}
		return err
	}
	return fmt.Errorf("op kind %d is not a write", o.kind)
}

func (st *state) rowCounts(names []string) map[string]int {
	out := make(map[string]int, len(names))
	for _, n := range names {
		out[n] = st.tables[n].Rows()
	}
	return out
}

// sample is one timed operation.
type sample struct {
	op          *op
	total       time.Duration
	first       time.Duration // queries only
	cpu         time.Duration
	allocBytes  uint64
	fingerprint fingerprint // queries only
	err         error
}

// phase is the outcome of the measured, untraced run.
type phase struct {
	samples []sample
	timed   time.Duration
	wall    time.Duration
	steal   float64
	// peakRSS is the peak resident set during the phase; peakRSSScoped
	// is false when it could only be read for the whole process.
	peakRSS       int64
	peakRSSScoped bool
	rowsBefore    map[string]int
	rowsAfter     map[string]int
	firstErrors   []string
}

// maxErrorsKept bounds the failure messages kept for the report.
const maxErrorsKept = 5

// minQueries is the fewest query samples a run takes, so that its p90
// latency has ten samples beyond it.
const minQueries = 100

// measure issues ops from src for budget of wall time, and until at
// least minQueries queries ran. Each operation is timed alone; its CPU
// time, allocation and verification are taken outside its clock.
func measure(w *workloadDef, st *state, src opStream, exp *expecter, budget, wallLimit time.Duration) *phase {
	ph := &phase{rowsBefore: st.rowCounts(w.tables)}
	h := exp.h
	var buf []resultRow
	ph.peakRSSScoped = resetPeakRSS()
	host0 := readHostCPU()
	start := time.Now()
	queries := 0
	for (time.Since(start) < budget || queries < minQueries) && time.Since(start) < wallLimit {
		o := src.next()
		s := sample{op: o}
		// Every operation starts on a collected heap, so it pays for the
		// collections its own allocation causes, not for the garbage of
		// earlier operations or of their verification.
		runtime.GC()
		cpu0 := cpuTime()
		alloc0, _ := memCounters()
		if o.kind == opQuery {
			queries++
			buf, s.first, s.total, s.err = st.query(o, buf[:0])
		} else {
			t0 := time.Now()
			s.err = st.write(o)
			s.total = time.Since(t0)
		}
		alloc1, _ := memCounters()
		s.cpu = cpuTime() - cpu0
		s.allocBytes = alloc1 - alloc0
		ph.timed += s.total
		if o.kind == opQuery && s.err == nil {
			var e *expectation
			if e, s.err = exp.expect(o); s.err == nil {
				s.fingerprint, s.err = verify(h, buf, e)
			}
		}
		if s.err != nil {
			s.err = fmt.Errorf("op %d (%s): %w", len(ph.samples), o.tmpl, s.err)
			if len(ph.firstErrors) < maxErrorsKept {
				ph.firstErrors = append(ph.firstErrors, s.err.Error())
			}
		}
		ph.samples = append(ph.samples, s)
		// Drop the references to the rows just verified.
		clear(buf)
	}
	ph.wall = time.Since(start)
	ph.peakRSS = peakRSSBytes()
	ph.steal = stealShare(host0, readHostCPU())
	ph.rowsAfter = st.rowCounts(w.tables)
	return ph
}

func (ph *phase) failed() int {
	n := 0
	for _, s := range ph.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}
