package engine_test

import (
	"testing"

	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// diffTable builds a single-column period table from (value, begin,
// end, mult) quadruples, in the given order.
func diffTable(rows ...[4]int64) *engine.Table {
	t := engine.NewTable(tuple.NewSchema("v"))
	for _, r := range rows {
		t.Append(tuple.Tuple{tuple.Int(r[0])}, interval.New(r[1], r[2]), r[3])
	}
	return t
}

// diffDB registers l and r under those names.
func diffDB(l, r *engine.Table) *engine.DB {
	db := engine.NewDB(fuzzDomain)
	db.AddTable("l", l)
	db.AddTable("r", r)
	return db
}

// streamDiff runs l − r through the streaming executor and materializes
// the result.
func streamDiff(t *testing.T, l, r *engine.Table) *engine.Table {
	t.Helper()
	it, err := diffDB(l, r).ExecStream(engine.DiffP{L: engine.ScanP{Name: "l"}, R: engine.ScanP{Name: "r"}})
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	out, err := engine.MaterializeErr(it)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamDiffMatchesBlocking pins the difference, run through the
// streaming executor, to the per-time-point ℕ-monus oracle and to the
// unique encoding on handcrafted shapes: monus truncation,
// zero-net-delta boundaries, duplicates, right-only groups, same-instant
// begin/end cancellation and empty sides.
func TestStreamDiffMatchesBlocking(t *testing.T) {
	cases := []struct {
		name string
		l, r *engine.Table
	}{
		{"empty-both", diffTable(), diffTable()},
		{"empty-right", diffTable([4]int64{1, 0, 10, 2}), diffTable()},
		{"empty-left", diffTable(), diffTable([4]int64{1, 0, 10, 2})},
		{"disjoint-groups", diffTable([4]int64{1, 0, 5, 1}, [4]int64{2, 3, 8, 1}), diffTable([4]int64{1, 2, 4, 1})},
		{"monus-truncation", diffTable([4]int64{1, 0, 4, 1}), diffTable([4]int64{1, 1, 3, 2})},
		{"overtaken-then-recovers", diffTable([4]int64{1, 0, 10, 2}), diffTable([4]int64{1, 2, 6, 3})},
		{"zero-delta-boundary", diffTable([4]int64{1, 0, 2, 1}, [4]int64{1, 2, 4, 1}), diffTable()},
		{"same-instant-cancel", diffTable([4]int64{1, 0, 4, 1}), diffTable([4]int64{1, 4, 8, 1})},
		{"right-only-group", diffTable([4]int64{1, 0, 4, 1}), diffTable([4]int64{2, 0, 4, 5})},
		{"duplicates", diffTable([4]int64{1, 0, 8, 3}), diffTable([4]int64{1, 2, 5, 1})},
		{"interleaved-sides", diffTable([4]int64{1, 0, 6, 1}, [4]int64{1, 3, 9, 1}), diffTable([4]int64{1, 1, 4, 1}, [4]int64{1, 5, 7, 1})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := streamDiff(t, c.l, c.r)
			if !sameCounts(monusTimePointCounts(c.l, c.r), timePointCounts(got)) {
				t.Fatalf("difference violates the per-time-point monus oracle:\nleft:\n%s\nright:\n%s\ngot:\n%s", c.l, c.r, got)
			}
			if !engine.IsCoalesced(got, engine.CoalesceNative) {
				t.Fatalf("difference is not the unique encoding:\nleft:\n%s\nright:\n%s\ngot:\n%s", c.l, c.r, got)
			}
		})
	}
}

// TestStreamDiffArityMismatch: incompatible inputs error up front.
func TestStreamDiffArityMismatch(t *testing.T) {
	l := engine.NewTable(tuple.NewSchema("a"))
	r := engine.NewTable(tuple.NewSchema("a", "b"))
	if _, err := diffDB(l, r).ExecStream(engine.DiffP{L: engine.ScanP{Name: "l"}, R: engine.ScanP{Name: "r"}}); err == nil {
		t.Fatal("arity mismatch must error")
	}
}

// TestTemporalDiffDeterministicOrder is the regression test for the
// map-iteration nondeterminism of the blocking difference: repeated
// identical calls must emit rows in the identical order (groups in
// first-seen order), because the cursor API exposes emission order
// directly.
func TestTemporalDiffDeterministicOrder(t *testing.T) {
	var l, r *engine.Table
	{
		l = engine.NewTable(tuple.NewSchema("v"))
		r = engine.NewTable(tuple.NewSchema("v"))
		for i := int64(0); i < 40; i++ {
			l.Append(tuple.Tuple{tuple.Int(i % 13)}, interval.New(i, i+5), 1)
			r.Append(tuple.Tuple{tuple.Int(i % 7)}, interval.New(i+1, i+3), 1)
		}
	}
	ref, err := engine.TemporalDiff(l, r)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Len() == 0 {
		t.Fatal("test input produced an empty difference; pick a denser input")
	}
	for run := 0; run < 10; run++ {
		got, err := engine.TemporalDiff(l, r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != ref.Len() {
			t.Fatalf("run %d: %d rows, want %d", run, got.Len(), ref.Len())
		}
		for i := range got.Rows {
			if got.Rows[i].Key() != ref.Rows[i].Key() {
				t.Fatalf("run %d: row %d = %v, want %v — blocking diff output order is nondeterministic", run, i, got.Rows[i], ref.Rows[i])
			}
		}
	}
}

// TestStreamDiffDeterministicOrder: the difference must also reach the
// cursor of the streaming executor in identical row order run to run,
// with many groups still open at the end of the sweep (first-seen group
// order, not map order).
func TestStreamDiffDeterministicOrder(t *testing.T) {
	l := engine.NewTable(tuple.NewSchema("v"))
	r := engine.NewTable(tuple.NewSchema("v"))
	for i := int64(0); i < 40; i++ {
		// Many groups still open at end of input, so the flush path has
		// real work to order.
		l.Append(tuple.Tuple{tuple.Int(i % 11)}, interval.New(i, 100), 1)
		r.Append(tuple.Tuple{tuple.Int(i % 5)}, interval.New(i, 90), 1)
	}
	ref := streamDiff(t, l, r)
	if ref.Len() == 0 {
		t.Fatal("test input produced an empty difference; pick a denser input")
	}
	for run := 0; run < 10; run++ {
		got := streamDiff(t, l, r)
		if got.Len() != ref.Len() {
			t.Fatalf("run %d: %d rows, want %d", run, got.Len(), ref.Len())
		}
		for i := range got.Rows {
			if got.Rows[i].Key() != ref.Rows[i].Key() {
				t.Fatalf("run %d: row %d = %v, want %v — streamed diff output order is nondeterministic", run, i, got.Rows[i], ref.Rows[i])
			}
		}
	}
}
