package engine

import (
	"math"
	"slices"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// TestAggregateSweepTieOrder pins the order in which the blocking
// aggregate sweep feeds tied events to its accumulators: at equal
// timestamps, in input row order, as a stable sort by timestamp leaves
// them. Float sums depend on that order (1e16 + 1 - 1e16 is 0, while
// 1e16 - 1e16 + 1 is 1), so the results must match an in-order
// accumulation, quantized like every float aggregate, bit for bit.
func TestAggregateSweepTieOrder(t *testing.T) {
	in := NewTable(tuple.NewSchema("g", "v"))
	var vals []float64
	for i := 0; i < 60; i++ {
		v := []float64{1e16, 1, -1e16, 3}[i%4]
		vals = append(vals, v)
		in.Append(tuple.Tuple{str("x"), tuple.Float(v)}, interval.New(0, 10), 1)
	}
	in.Append(tuple.Tuple{str("x"), tuple.Float(0.5)}, interval.New(0, 20), 1)

	// The sweep adds every entry at t=0 and subtracts every exit at t=10,
	// each in input row order.
	var open float64
	for _, v := range vals {
		open += v
	}
	open += 0.5
	afterExits := open
	for _, v := range vals {
		afterExits += -v
	}

	got, err := TemporalAggregate(in, []string{"g"}, []algebra.AggSpec{
		{Fn: krel.Sum, Arg: "v", As: "s"},
		{Fn: krel.Avg, Arg: "v", As: "a"},
	}, true, dom)
	if err != nil {
		t.Fatal(err)
	}
	want := map[interval.Interval][2]float64{
		interval.New(0, 10):  {krel.QuantizeFloat(open), krel.QuantizeFloat(open / float64(len(vals)+1))},
		interval.New(10, 20): {krel.QuantizeFloat(afterExits), krel.QuantizeFloat(afterExits)},
	}
	if got.Len() != len(want) {
		t.Fatalf("got %d rows, want %d:\n%s", got.Len(), len(want), got)
	}
	for _, row := range got.Rows {
		w, ok := want[got.Interval(row)]
		if !ok {
			t.Fatalf("unexpected row %v", row)
		}
		for i, f := range w {
			if g := row[1+i].AsFloat(); math.Float64bits(g) != math.Float64bits(f) {
				t.Errorf("%v column %d = %v, want %v (in-order accumulation)", got.Interval(row), 1+i, g, f)
			}
		}
	}
}

// TestSortRowsByEndpointsStable: rows with equal (begin, end) keep their
// input order, on inputs large enough that an unstable sort would
// reorder ties.
func TestSortRowsByEndpointsStable(t *testing.T) {
	var rows []tuple.Tuple
	for i := 0; i < 2000; i++ {
		b := int64((i * 7919) % 5)
		rows = append(rows, tuple.Tuple{tuple.Int(int64(i)), tuple.Int(b), tuple.Int(b + int64(i%3) + 1)})
	}
	want := slices.Clone(rows)
	slices.SortStableFunc(want, CompareEndpoints)
	SortRowsByEndpoints(rows)
	for i := range rows {
		if rows[i][0] != want[i][0] {
			t.Fatalf("position %d holds row %v, want %v", i, rows[i], want[i])
		}
	}
}
