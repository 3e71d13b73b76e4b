package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/rewrite"
	"snapk/internal/sqlfe"
	"snapk/internal/tuple"
)

// span is one timed call into a layer. Spans of one operation share its
// query id; parent is 0 for an operation's root span.
type span struct {
	name       string
	id, parent int
	query      int
	tmpl       string
	start, end time.Duration // offsets from the tracer's epoch
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, query, parent int, tmpl string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, query: query, tmpl: tmpl, start: time.Since(t.epoch)})
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.end = time.Since(t.epoch)
	return s.end - s.start
}

// writeChrome writes the spans as Chrome trace-event JSON, the format
// `snapq -trace` emits: load it in chrome://tracing or ui.perfetto.dev.
func (t *tracer) writeChrome(path, process string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans)+1)
	events = append(events, event{Name: "process_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": process}})
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Cat: "layer", Ph: "X", Pid: 1, Tid: 1,
			Ts: us(s.start), Dur: us(s.end - s.start),
			Args: map[string]any{"query_id": s.query, "span_id": s.id, "parent_id": s.parent, "template": s.tmpl},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCounts accumulates the traced run's per-layer measurements.
type layerCounts struct {
	parse, plan, open, first, drain, total, qerror *groupMedians

	queries, sortEnforcers  int
	scans, sortedScans      int
	exchangeWait            time.Duration
	execCPU, execWall       time.Duration
	execAlloc, execGC       uint64
	scannedRows, resultRows int64
	coalesceIn, coalesceOut int64
	maxStateRows            int64
	statsRebuild            []float64 // ms
}

func newLayerCounts() *layerCounts {
	return &layerCounts{
		parse: newGroupMedians(), plan: newGroupMedians(), open: newGroupMedians(),
		first: newGroupMedians(), drain: newGroupMedians(), total: newGroupMedians(),
		qerror: newGroupMedians(),
	}
}

// tracedRun re-issues operations by calling each layer's public function
// in the order DB.QueryRows does, with a span around every call.
type tracedRun struct {
	w   *workloadDef
	st  *state
	eng *engine.DB
	t   *tracer
	c   *layerCounts
}

// statsSpan times the table's first Stats call since its last write.
func (tr *tracedRun) statsSpan(name string, qid int) error {
	tbl, err := tr.eng.Table(name)
	if err != nil {
		return err
	}
	sp := tr.t.begin("engine.Table.Stats", qid, 0, name)
	tbl.Stats()
	tr.c.statsRebuild = append(tr.c.statsRebuild, ms(tr.t.end(sp)))
	return nil
}

func (tr *tracedRun) write(o *op, qid int) error {
	sp := tr.t.begin("snapk.Table."+strings.ToUpper(o.tmpl[:1])+o.tmpl[1:], qid, 0, o.tmpl)
	err := tr.st.write(o)
	tr.t.end(sp)
	if err != nil {
		return err
	}
	return tr.statsSpan(o.table, qid)
}

// query mirrors DB.QueryRows and Rows.Next/Values/Period: parse and
// translate, plan, start execution, pull the first row, then drain.
func (tr *tracedRun) query(o *op, qid int, buf []resultRow) ([]resultRow, error) {
	c := tr.c
	root := tr.t.begin("query", qid, 0, o.tmpl)
	sp := tr.t.begin("sqlfe.ParseAndTranslate", qid, root, o.tmpl)
	q, err := sqlfe.ParseAndTranslate(o.sql, tr.eng)
	parseD := tr.t.end(sp)
	if err != nil {
		return buf, err
	}
	sp = tr.t.begin("rewrite.PlanQuery", qid, root, o.tmpl)
	p, dec, err := rewrite.PlanQuery(q, tr.eng, rewrite.Options{Mode: rewrite.ModeOptimized, Parallelism: tr.w.parallelism})
	planD := tr.t.end(sp)
	if err != nil {
		return buf, err
	}
	// rewrite.Stream narrows the worker count the same way.
	workers := max(tr.w.parallelism, 1)
	if dec.Workers > 0 {
		workers = min(workers, dec.Workers)
	}
	tr.countPlan(p)

	col := engine.NewCollector()
	cpu0 := cpuTime()
	alloc0, gc0 := memCounters()
	wall0 := time.Now()
	sp = tr.t.begin("parallel.Exec", qid, root, o.tmpl)
	it, err := parallel.Exec(context.Background(), tr.eng, p, parallel.Options{
		Workers: workers,
		Stats:   col.Root.Child("result", ""),
		Gov:     engine.NewGovernor(engine.Limits{}),
	})
	openD := tr.t.end(sp)
	if err != nil {
		return buf, err
	}
	it = engine.CheckErrChecked("e2ebench traced root", it)

	// Pull as Rows does: whole batches when the root is batch-capable.
	cols := it.Schema().Arity() - 2
	bit, batched := it.(engine.BatchIter)
	var b *engine.RowBatch
	if batched {
		b = engine.NewRowBatch(engine.DefaultBatchSize)
	}
	bi := 0
	next := func() (tuple.Tuple, bool) {
		if !batched {
			return it.Next()
		}
		if bi >= b.Len() {
			if !bit.NextBatch(b) {
				return nil, false
			}
			bi = 0
		}
		bi++
		return b.Rows[bi-1], true
	}
	sp = tr.t.begin("first Next", qid, root, o.tmpl)
	row, ok := next()
	firstD := tr.t.end(sp)
	sp = tr.t.begin("drain", qid, root, o.tmpl)
	n0 := len(buf)
	for ok {
		vals := make([]any, cols)
		for i := range vals {
			vals[i] = toAny(row[i])
		}
		n := len(row)
		buf = append(buf, resultRow{vals: vals, begin: row[n-2].AsInt(), end: row[n-1].AsInt()})
		row, ok = next()
	}
	err = engine.IterErr(it)
	it.Close()
	drainD := tr.t.end(sp)
	totalD := tr.t.end(root)
	c.execWall += time.Since(wall0)
	c.execCPU += cpuTime() - cpu0
	alloc1, gc1 := memCounters()
	c.execAlloc += alloc1 - alloc0
	c.execGC += gc1 - gc0
	if err != nil {
		return buf, err
	}

	c.queries++
	c.parse.add(o.tmpl, us(parseD))
	c.plan.add(o.tmpl, us(planD))
	c.open.add(o.tmpl, ms(openD))
	c.first.add(o.tmpl, ms(firstD))
	c.drain.add(o.tmpl, ms(drainD))
	c.total.add(o.tmpl, ms(totalD))
	got := int64(len(buf) - n0)
	c.resultRows += got
	est := tr.eng.EstimateRows(p)
	c.qerror.add(o.tmpl, qError(est, got))
	tr.countCollector(col.Root)
	return buf, nil
}

// qError is max(est/act, act/est), with both floored at one row.
func qError(est, act int64) float64 {
	e, a := float64(max(est, 1)), float64(max(act, 1))
	return max(e/a, a/e)
}

// countPlan walks the physical plan from outside: sort enforcers, and
// scans whose table is still begin-sorted.
func (tr *tracedRun) countPlan(p engine.Plan) {
	switch n := p.(type) {
	case engine.ScanP:
		tr.c.scans++
		if tr.eng.ScanBeginSorted(n.Name) {
			tr.c.sortedScans++
		}
	case engine.SortP:
		tr.c.sortEnforcers++
		tr.countPlan(n.In)
	case engine.FilterP:
		tr.countPlan(n.In)
	case engine.ProjectP:
		tr.countPlan(n.In)
	case engine.AggP:
		tr.countPlan(n.In)
	case engine.CoalesceP:
		tr.countPlan(n.In)
	case engine.WindowP:
		tr.countPlan(n.In)
	case engine.JoinP:
		tr.countPlan(n.L)
		tr.countPlan(n.R)
	case engine.UnionP:
		tr.countPlan(n.L)
		tr.countPlan(n.R)
	case engine.DiffP:
		tr.countPlan(n.L)
		tr.countPlan(n.R)
	}
}

// countCollector reads only counts from the EXPLAIN ANALYZE tree: rows
// of scan and coalesce nodes, peak sweep state and exchange wait. Its
// per-operator times are not used.
func (tr *tracedRun) countCollector(root *engine.OpStats) {
	var state int64
	var walk func(st *engine.OpStats)
	walk = func(st *engine.OpStats) {
		state += st.MaxState()
		switch {
		case st.Label == "Scan":
			tr.c.scannedRows += nodeRows(st)
		case st.Label == "Coalesce":
			tr.c.coalesceOut += nodeRows(st)
			for _, ch := range st.Children() {
				if ch.Label != "fragment" && !strings.HasPrefix(ch.Label, "Exchange:") {
					tr.c.coalesceIn += nodeRows(ch)
				}
			}
		case strings.HasPrefix(st.Label, "Exchange:"):
			tr.c.exchangeWait += st.Wait()
		}
		for _, ch := range st.Children() {
			walk(ch)
		}
	}
	walk(root)
	tr.c.maxStateRows = max(tr.c.maxStateRows, state)
}

// nodeRows is the rows an operator yielded: its own count on the
// sequential engine, the sum over its per-worker fragments when the
// parallel executor replicated it.
func nodeRows(st *engine.OpStats) int64 {
	n := st.Rows()
	for _, ch := range st.Children() {
		if ch.Label == "fragment" {
			n += ch.Rows()
		}
	}
	return n
}

// replay re-issues ops on st with tracing and checks every query returns
// the same rows as the untraced run did.
func replay(w *workloadDef, st *state, ph *phase, h *hasher) (*tracer, *layerCounts, error) {
	eng, err := engineOf(st.db)
	if err != nil {
		return nil, nil, err
	}
	tr := &tracedRun{w: w, st: st, eng: eng, t: &tracer{epoch: time.Now()}, c: newLayerCounts()}
	// The load was the last write of every table.
	for _, name := range w.tables {
		if err := tr.statsSpan(name, 0); err != nil {
			return nil, nil, err
		}
	}
	var buf []resultRow
	for i, s := range ph.samples {
		qid := i + 1
		runtime.GC()
		if s.op.kind != opQuery {
			if err := tr.write(s.op, qid); err != nil {
				return nil, nil, fmt.Errorf("traced op %d (%s): %w", i, s.op.tmpl, err)
			}
			continue
		}
		if buf, err = tr.query(s.op, qid, buf[:0]); err != nil {
			return nil, nil, fmt.Errorf("traced op %d (%s): %w", i, s.op.tmpl, err)
		}
		if fp := h.ofRows(buf); s.err == nil && fp != s.fingerprint {
			return nil, nil, fmt.Errorf("traced op %d (%s) returned %v, untraced run returned %v", i, s.op.tmpl, fp, s.fingerprint)
		}
		clear(buf)
	}
	return tr.t, tr.c, nil
}
