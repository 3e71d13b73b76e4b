package engine

import (
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// The sweep tests below run coalesce, the pre-aggregated split and the
// difference as operators of the streaming executor (ExecStream), the
// path every query takes, and pin their results to hand-computed
// encodings or to an independent oracle (the coalesced naive split).

func sweepTable(rows ...[3]int64) *Table {
	t := NewTable(tuple.NewSchema("v"))
	for _, r := range rows {
		t.Append(tuple.Tuple{tuple.Int(r[0])}, interval.New(r[1], r[2]), 1)
	}
	return t
}

// streamPlan registers tables as a, b, … in a fresh database over dom,
// runs the plan built over their scans through ExecStream and
// materializes the result.
func streamPlan(t *testing.T, dom interval.Domain, build func(scans ...Plan) Plan, tables ...*Table) *Table {
	t.Helper()
	db := NewDB(dom)
	scans := make([]Plan, len(tables))
	for i, tbl := range tables {
		name := string(rune('a' + i))
		db.AddTable(name, tbl)
		scans[i] = ScanP{Name: name}
	}
	it, err := db.ExecStream(build(scans...))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	out, err := MaterializeErr(it)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// streamCoalesce runs CoalesceP over in through the streaming executor.
func streamCoalesce(t *testing.T, in *Table) *Table {
	t.Helper()
	return streamPlan(t, interval.NewDomain(0, 1<<62), func(s ...Plan) Plan { return CoalesceP{In: s[0]} }, in)
}

// streamAgg runs the pre-aggregated split over in through the streaming
// executor, and returns it with the oracle: the naive split aggregated
// per segment, then coalesced.
func streamAgg(t *testing.T, in *Table, groupBy []string, aggs []algebra.AggSpec, dom interval.Domain) (got, want *Table) {
	t.Helper()
	got = streamPlan(t, dom, func(s ...Plan) Plan {
		return AggP{GroupBy: groupBy, Aggs: aggs, PreAgg: true, In: s[0]}
	}, in)
	naive, err := TemporalAggregate(in, groupBy, aggs, false, dom)
	if err != nil {
		t.Fatal(err)
	}
	return got, Coalesce(naive, CoalesceNative)
}

// An interval ending exactly where another of the same group begins
// must coalesce into one maximal interval — the same-instant events
// cancel and no boundary may be emitted.
func TestStreamCoalesceAdjacentIntervalsMerge(t *testing.T) {
	got := streamCoalesce(t, sweepTable([3]int64{1, 0, 4}, [3]int64{1, 4, 8}))
	if len(got.Rows) != 1 {
		t.Fatalf("adjacent intervals did not merge: %s", got)
	}
	if iv := got.Interval(got.Rows[0]); iv != interval.New(0, 8) {
		t.Fatalf("merged interval = %v, want [0, 8)", iv)
	}
}

// Two ends and two begins at the same instant: the net delta is zero,
// so the two-copy segment must run through unbroken.
func TestStreamCoalesceSameInstantCancellation(t *testing.T) {
	got := streamCoalesce(t, sweepTable(
		[3]int64{1, 0, 4}, [3]int64{1, 0, 4}, // two rows ending at 4
		[3]int64{1, 4, 8}, [3]int64{1, 4, 8}, // two rows beginning at 4
	))
	want := NewTable(tuple.NewSchema("v"))
	want.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, 8), 2)
	assertSameRows(t, got, want)
}

// Multiplicity steps up and down across overlaps: one maximal segment
// per constant multiplicity.
func TestStreamCoalesceOverlapSteps(t *testing.T) {
	got := streamCoalesce(t, sweepTable([3]int64{7, 0, 10}, [3]int64{7, 5, 15}, [3]int64{7, 5, 7}))
	want := NewTable(tuple.NewSchema("v"))
	want.Append(tuple.Tuple{tuple.Int(7)}, interval.New(0, 5), 1)
	want.Append(tuple.Tuple{tuple.Int(7)}, interval.New(5, 7), 3)
	want.Append(tuple.Tuple{tuple.Int(7)}, interval.New(7, 10), 2)
	want.Append(tuple.Tuple{tuple.Int(7)}, interval.New(10, 15), 1)
	assertSameRows(t, got, want)
}

// Interval ends beyond any practical sweep position must still be
// emitted (regression: a drain used a 1<<62 sentinel and silently
// dropped segments ending at or above it).
func TestStreamCoalesceFlushesHugeEnds(t *testing.T) {
	huge := int64(1) << 62
	got := streamCoalesce(t, sweepTable([3]int64{1, 0, huge}, [3]int64{1, 0, huge + 5}))
	want := NewTable(tuple.NewSchema("v"))
	want.Append(tuple.Tuple{tuple.Int(1)}, interval.New(0, huge), 2)
	want.Append(tuple.Tuple{tuple.Int(1)}, interval.New(huge, huge+5), 1)
	assertSameRows(t, got, want)
}

// A value whose rows reappear after a gap, with other groups' rows in
// between, keeps its separate maximal segments.
func TestStreamCoalesceGroupReopensAfterEviction(t *testing.T) {
	got := streamCoalesce(t, sweepTable(
		[3]int64{1, 0, 2},
		[3]int64{2, 3, 20},
		[3]int64{1, 10, 12},
		[3]int64{2, 21, 22},
		[3]int64{1, 21, 30},
	))
	want := sweepTable(
		[3]int64{1, 0, 2}, [3]int64{1, 10, 12}, [3]int64{1, 21, 30},
		[3]int64{2, 3, 20}, [3]int64{2, 21, 22},
	)
	assertSameRows(t, got, want)
}

// Endpoint comparison must not overflow on extreme timestamps
// (regression: begin was compared via int64 subtraction).
func TestCompareEndpointsExtremeTimes(t *testing.T) {
	lo := tuple.Tuple{tuple.Int(0), tuple.Int(-1 << 63), tuple.Int(0)}
	hi := tuple.Tuple{tuple.Int(0), tuple.Int(1<<63 - 2), tuple.Int(1<<63 - 1)}
	if CompareEndpoints(lo, hi) != -1 || CompareEndpoints(hi, lo) != 1 {
		t.Fatal("extreme begins compare wrongly (subtraction overflow)")
	}
	if CompareEndpoints(lo, lo) != 0 {
		t.Fatal("equal rows must compare equal")
	}
}

// The sort enforcer re-emits its input in endpoint order.
func TestSortIterEstablishesOrder(t *testing.T) {
	in := sweepTable([3]int64{1, 5, 9}, [3]int64{2, 0, 4}, [3]int64{1, 2, 3})
	it := NewSortIter(NewTableIter(in))
	defer it.Close()
	out := Materialize(it)
	if !RowsBeginSorted(out.Rows) {
		t.Fatalf("sort enforcer output not begin-sorted: %s", out)
	}
	if out.Len() != in.Len() {
		t.Fatalf("sort enforcer changed cardinality: %d != %d", out.Len(), in.Len())
	}
}

// Grouped aggregation must split where its results change and skip
// gaps, exactly like the coalesced naive split.
func TestStreamAggMatchesBlockingGrouped(t *testing.T) {
	in := NewTable(tuple.NewSchema("g", "x"))
	add := func(g, x, b, e int64) {
		in.Append(tuple.Tuple{tuple.Int(g), tuple.Int(x)}, interval.New(b, e), 1)
	}
	add(1, 10, 0, 10)
	add(1, 20, 5, 15)
	add(2, 7, 2, 4)
	add(2, 9, 8, 12) // gap inside group 2: no output rows over [4, 8)
	aggs := []algebra.AggSpec{
		{Fn: krel.Sum, Arg: "x", As: "s"},
		{Fn: krel.Min, Arg: "x", As: "lo"},
		{Fn: krel.CountStar, As: "cnt"},
	}
	got, want := streamAgg(t, in, []string{"g"}, aggs, interval.NewDomain(0, 24))
	assertSameRows(t, got, want)
}

// Global aggregation emits neutral rows over gaps and over the whole
// domain when the input is empty — the AG-bug fix.
func TestStreamAggGlobalGapsAndEmptyInput(t *testing.T) {
	dom := interval.NewDomain(0, 20)
	aggs := []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}

	got, want := streamAgg(t, NewTable(tuple.NewSchema("x")), nil, aggs, dom)
	assertSameRows(t, got, want)
	if got.Len() != 1 || got.Interval(got.Rows[0]) != interval.New(0, 20) || got.Rows[0][0].AsInt() != 0 {
		t.Fatalf("empty input must produce one count-0 row over the domain, got %s", got)
	}

	in := NewTable(tuple.NewSchema("x"))
	in.Append(tuple.Tuple{tuple.Int(1)}, interval.New(3, 7), 1)
	in.Append(tuple.Tuple{tuple.Int(2)}, interval.New(12, 18), 1)
	got, want = streamAgg(t, in, nil, aggs, dom)
	assertSameRows(t, got, want)
	if got.Len() != 5 {
		t.Fatalf("two disjoint rows in [0, 20) must split the domain into 5 segments, got %s", got)
	}
}

// Emitted duplicate rows must not share a backing array (the
// regression class fixed for the sweep emitters in PR 1).
func TestStreamCoalesceDuplicatesDoNotAlias(t *testing.T) {
	got := streamCoalesce(t, sweepTable([3]int64{1, 0, 8}, [3]int64{1, 0, 8}))
	if len(got.Rows) != 2 {
		t.Fatalf("want two duplicate rows, got %s", got)
	}
	got.Rows[0][0] = tuple.Int(99)
	if got.Rows[1][0].AsInt() == 99 {
		t.Fatal("duplicate output rows share a backing slice")
	}
}

// A sweep's EXPLAIN ANALYZE state is the rows it materialized: for the
// difference, both inputs.
func TestStreamDiffPeakState(t *testing.T) {
	const groups = 2000
	l := NewTable(tuple.NewSchema("v"))
	r := NewTable(tuple.NewSchema("v"))
	for i := int64(0); i < groups; i++ {
		l.Append(tuple.Tuple{tuple.Int(i)}, interval.New(i*10, i*10+6), 2)
		r.Append(tuple.Tuple{tuple.Int(i)}, interval.New(i*10+2, i*10+4), 1)
	}
	db := NewDB(interval.NewDomain(0, groups*10))
	db.AddTable("l", l)
	db.AddTable("r", r)
	col := NewCollector()
	it, err := db.ExecStreamObs(DiffP{L: ScanP{Name: "l"}, R: ScanP{Name: "r"}}, col.Root)
	if err != nil {
		t.Fatal(err)
	}
	out, err := MaterializeErr(it)
	it.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Per group: [0,2)×2, [2,4)×1, [4,6)×2 relative to the group's begin.
	if out.Len() != 5*groups {
		t.Fatalf("difference has %d rows, want %d", out.Len(), 5*groups)
	}
	if st := col.RootOp(); st == nil || st.Label != "Diff" || st.MaxState() != int64(l.Len()+r.Len()) {
		t.Fatalf("diff node must report max_state = %d materialized rows, got %+v", l.Len()+r.Len(), st)
	}
}

// Size-based build-side selection must not change join results or
// column order when it flips the build side.
func TestBuildLeftProbeRightJoin(t *testing.T) {
	l := NewTable(tuple.NewSchema("a", "x"))
	l.Append(tuple.Tuple{tuple.Int(1), tuple.Int(10)}, interval.New(0, 5), 1)
	r := NewTable(tuple.NewSchema("b", "y"))
	r.Append(tuple.Tuple{tuple.Int(1), tuple.Int(20)}, interval.New(2, 8), 1)
	r.Append(tuple.Tuple{tuple.Int(1), tuple.Int(30)}, interval.New(6, 9), 1)
	pred := algebra.Eq(algebra.Col("a"), algebra.Col("b"))

	std, err := newJoinIter(NewTableIter(l), NewTableIter(r), pred)
	if err != nil {
		t.Fatal(err)
	}
	want := Materialize(std)
	std.Close()

	swp, err := newJoinIterBuildLeft(NewTableIter(l), NewTableIter(r), pred)
	if err != nil {
		t.Fatal(err)
	}
	defer swp.Close()
	got := Materialize(swp)
	assertSameRows(t, got, want)
	if got.Len() != 1 {
		t.Fatalf("want exactly the overlapping pair, got %s", got)
	}
	if got.Rows[0][1].AsInt() != 10 || got.Rows[0][3].AsInt() != 20 {
		t.Fatalf("swapped build side changed column order: %v", got.Rows[0])
	}
}
