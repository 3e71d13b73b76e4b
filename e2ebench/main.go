// Command e2ebench is snapk's end-to-end benchmark. It drives one seeded
// workload through the public snapk API from a single client goroutine
// in a closed loop: it loads data with Table.Insert, reads with
// DB.QueryRows and Rows.Next/Values/Period, and writes with
// Table.Insert/Update/Delete. Every timed result is verified outside the
// clock. With -trace 1 it then replays the same operations layer by
// layer (sqlfe, rewrite, parallel/engine) with a span around each call,
// and reports per-layer metrics instead of end-to-end ones.
//
// Run it through run.sh from the repository root; README.md lists the
// workloads, metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"
	"unsafe"

	"snapk"
	"snapk/internal/engine"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// contractFile, in the directory the benchmark runs from, names the
// metrics the last output line carries.
const contractFile = "BENCHMARK.json"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: emp-analytic, tpch-agg or emp-oltp")
	seed := flag.Int64("seed", 1, "seed for the generated data and operations")
	seconds := flag.Int("seconds", 15, "timed operation seconds to measure")
	trace := flag.Int("trace", 0, "1: replay the run layer by layer and report per-layer metrics")
	out := flag.String("out", ".bench_build/e2ebench", "directory for the trace and result files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	declared, err := readContract(contractFile, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	r, err := benchmark(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	r.print(os.Stdout)
	path := filepath.Join(*out, fmt.Sprintf("result-%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := r.writeFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Printf("results: %s\n", path)

	final := struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: metricSet{}}
	src := r.endToEnd
	if *trace == 1 {
		src = r.perLayer
	}
	for _, d := range declared {
		m, ok := src[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "e2ebench: metric %s was not measured on %s\n", d.Name, w.name)
			return 1
		}
		if m.Unit != d.Unit {
			fmt.Fprintf(os.Stderr, "e2ebench: metric %s is in %s, %s declares %s\n", d.Name, m.Unit, contractFile, d.Unit)
			return 1
		}
		final.Metrics[d.Name] = m
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.correct {
		return 1
	}
	return 0
}

// contractMetric is one metric BENCHMARK.json declares.
type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readContract reads the metrics BENCHMARK.json declares: the end_to_end
// ones, or the per_layer ones for a traced run.
func readContract(path string, traced bool) ([]contractMetric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read metric contract: %w", err)
	}
	var c struct {
		EndToEnd []contractMetric `json:"end_to_end"`
		PerLayer []contractMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if traced {
		return c.PerLayer, nil
	}
	return c.EndToEnd, nil
}

// report is everything one run measured.
type report struct {
	correct           bool
	attempted, failed int
	endToEnd          metricSet
	perLayer          metricSet
	diagnostics       map[string]any
}

func benchmark(w *workloadDef, seed int64, budget time.Duration, traced bool, outDir string) (*report, error) {
	var st *state
	var timings []setupTiming
	for range setupRepeats {
		s, tm, err := setup(w, seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st = s
		timings = append(timings, tm)
	}
	h := newHasher()
	tRef := time.Now()
	exp, err := newExpecter(w, h, st.db, st.data, seed)
	if err != nil {
		return nil, err
	}
	refTime := time.Since(tRef)

	// The cap keeps a run on a slow host inside its deadline when the
	// minimum query count takes longer than budget.
	wallLimit := budget + time.Minute
	ph := measure(w, st, w.ops(seed, st.data), exp, budget, wallLimit)

	r := &report{
		attempted:   len(ph.samples),
		failed:      ph.failed(),
		endToEnd:    endToEndMetrics(ph, timings),
		diagnostics: diagnostics(w, seed, ph, timings, refTime),
	}
	r.correct = r.failed == 0
	if traced && r.correct {
		if !w.readOnly {
			// Replay from the same starting state: set up again.
			if st, _, err = setup(w, seed); err != nil {
				return nil, fmt.Errorf("set-up for the traced run: %w", err)
			}
		}
		t, c, err := replay(w, st, ph, h)
		if err != nil {
			r.correct = false
			r.diagnostics["trace_error"] = err.Error()
		} else {
			path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
			if err := t.writeChrome(path, "e2ebench "+w.name); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
			r.diagnostics["trace_file"] = path
			r.perLayer = layerMetrics(c, timings, r.endToEnd["latency_geomean_ms"].Value)
		}
	}
	return r, nil
}

// engineOf returns the engine database behind a snapk.DB. snapk exposes
// no handle to it, and the traced run must call the layers on the very
// tables QueryRows reads, so it reads the unexported field after
// checking its name and type.
func engineOf(db *snapk.DB) (*engine.DB, error) {
	f := reflect.ValueOf(db).Elem().FieldByName("eng")
	if !f.IsValid() || f.Type() != reflect.TypeOf((*engine.DB)(nil)) {
		return nil, fmt.Errorf("snapk.DB has no field eng of type *engine.DB")
	}
	return *(**engine.DB)(unsafe.Pointer(f.UnsafeAddr())), nil
}

func endToEndMetrics(ph *phase, timings []setupTiming) metricSet {
	m := metricSet{}
	lat, first := newGroupMedians(), newGroupMedians()
	var all []float64
	writes := map[string][]float64{}
	var cpu time.Duration
	var alloc uint64
	for _, s := range ph.samples {
		cpu += s.cpu
		alloc += s.allocBytes
		if s.op.kind == opQuery {
			lat.add(s.op.tmpl, ms(s.total))
			first.add(s.op.tmpl, ms(s.first))
			all = append(all, ms(s.total))
		} else {
			writes[s.op.tmpl] = append(writes[s.op.tmpl], us(s.total))
		}
	}
	n := float64(len(ph.samples))
	m.set("throughput_ops_s", n/ph.timed.Seconds(), "ops/s")
	m.set("latency_geomean_ms", lat.geomeanOfMedians(), "ms")
	// A percentile is reported only with at least ten samples beyond it.
	if len(all) >= 100 {
		m.set("latency_p90_ms", quantile(all, 0.90), "ms")
	}
	if len(all) >= 1000 {
		m.set("latency_p99_ms", quantile(all, 0.99), "ms")
	}
	m.set("first_row_geomean_ms", first.geomeanOfMedians(), "ms")
	for _, kind := range []string{"insert", "update", "delete"} {
		if v := writes[kind]; len(v) > 0 {
			m.set(kind+"_p50_us", median(v), "us")
		}
	}
	m.set("cpu_ms_per_op", ms(cpu)/n, "ms")
	m.set("alloc_mb_per_op", float64(alloc)/1e6/n, "MB")
	m.set("max_rss_mb", float64(ph.peakRSS)/1e6, "MB")
	totals := make([]float64, len(timings))
	for i, t := range timings {
		totals[i] = t.total().Seconds()
	}
	m.set("setup_s", median(totals), "s")
	m.set("error_rate", float64(ph.failed())/n, "ratio")
	return m
}

func layerMetrics(c *layerCounts, timings []setupTiming, untracedGeomeanMs float64) metricSet {
	m := metricSet{}
	q := float64(max(c.queries, 1))
	m.set("sqlfe.parse_us", c.parse.geomeanOfMedians(), "us")
	m.set("rewrite.plan_us", c.plan.geomeanOfMedians(), "us")
	m.set("rewrite.sort_enforcers", float64(c.sortEnforcers)/q, "count")
	m.set("rewrite.est_qerror", c.qerror.geomeanOfMedians(), "ratio")
	m.set("exec.open_ms", c.open.geomeanOfMedians(), "ms")
	m.set("exec.first_row_ms", c.first.geomeanOfMedians(), "ms")
	m.set("exec.drain_ms", c.drain.geomeanOfMedians(), "ms")
	m.set("exec.cpu_per_wall", c.execCPU.Seconds()/c.execWall.Seconds(), "ratio")
	m.set("parallel.exchange_wait_ms", ms(c.exchangeWait)/q, "ms")
	m.set("exec.alloc_mb", float64(c.execAlloc)/1e6/q, "MB")
	m.set("exec.gc_cycles", float64(c.execGC)/q, "count")
	m.set("engine.rows_scanned_per_result", float64(c.scannedRows)/float64(max(c.resultRows, 1)), "ratio")
	m.set("engine.coalesce_in_out", float64(c.coalesceIn)/float64(max(c.coalesceOut, 1)), "ratio")
	m.set("engine.max_state_rows", float64(c.maxStateRows), "rows")
	m.set("engine.stats_rebuild_ms", median(c.statsRebuild), "ms")
	m.set("engine.sorted_scan_frac", float64(c.sortedScans)/float64(max(c.scans, 1)), "ratio")
	var gen, perRow []float64
	for _, t := range timings {
		gen = append(gen, t.gen.Seconds())
		perRow = append(perRow, us(t.load)/float64(max(t.rows, 1)))
	}
	m.set("dataset.gen_s", median(gen), "s")
	m.set("snapk.load_us_per_row", median(perRow), "us")
	m.set("trace.overhead_frac", c.total.geomeanOfMedians()/untracedGeomeanMs-1, "ratio")
	return m
}

func diagnostics(w *workloadDef, seed int64, ph *phase, timings []setupTiming, refTime time.Duration) map[string]any {
	queries := 0
	perOp := map[string][]float64{}
	for _, s := range ph.samples {
		if s.op.kind == opQuery {
			queries++
		}
		perOp[s.op.tmpl] = append(perOp[s.op.tmpl], ms(s.total))
	}
	medians := map[string]float64{}
	for k, v := range perOp {
		medians[k] = median(v)
	}
	return map[string]any{
		"workload":                w.name,
		"seed":                    seed,
		"nproc":                   runtime.NumCPU(),
		"gomaxprocs":              runtime.GOMAXPROCS(0),
		"go_version":              runtime.Version(),
		"steal_share":             ph.steal,
		"timed_s":                 ph.timed.Seconds(),
		"wall_s":                  ph.wall.Seconds(),
		"reference_s":             refTime.Seconds(),
		"queries":                 queries,
		"writes":                  len(ph.samples) - queries,
		"rows_before":             ph.rowsBefore,
		"rows_after":              ph.rowsAfter,
		"errors":                  ph.firstErrors,
		"setup_total_s":           timingsOf(timings, setupTiming.total),
		"setup_warmup_s":          timingsOf(timings, func(t setupTiming) time.Duration { return t.warmup }),
		"max_rss_scoped_to_phase": ph.peakRSSScoped,
		"parallelism":             w.parallelism,
		"median_ms_by_op":         medians,
	}
}

func timingsOf(ts []setupTiming, f func(setupTiming) time.Duration) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = f(t).Seconds()
	}
	return out
}

func printMetrics(f *os.File, title string, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(f, title)
	for _, n := range names {
		fmt.Fprintf(f, "  %-34s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func (r *report) print(f *os.File) {
	printMetrics(f, "end-to-end (untraced):", r.endToEnd)
	if r.perLayer != nil {
		printMetrics(f, "per-layer (traced replay):", r.perLayer)
	}
	diag, err := json.Marshal(map[string]any{"diagnostics": r.diagnostics})
	if err == nil {
		fmt.Fprintln(f, string(diag))
	}
}

func (r *report) writeFile(path string) error {
	raw, err := json.MarshalIndent(map[string]any{
		"correct":     r.correct,
		"attempted":   r.attempted,
		"failed":      r.failed,
		"end_to_end":  r.endToEnd,
		"per_layer":   r.perLayer,
		"diagnostics": r.diagnostics,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
