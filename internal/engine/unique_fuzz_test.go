package engine_test

import (
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// decodeFuzzAggTable decodes 4-byte chunks of fuzz data into an
// interval multiset over (g, x): a grouping column with NULLs and an
// aggregate argument that mixes ints, integral and half-integral floats
// and NULLs — (group, argument, begin, span-and-multiplicity). Halves
// keep every float sum exact, so the sweep and the hash-aggregation
// oracle agree on values whatever order they add them in; integral floats next to ints exercise the merges' key
// equality (a sum of 1 and a sum of 1.0 are one value).
func decodeFuzzAggTable(data []byte) *engine.Table {
	if len(data) > 240 {
		data = data[:240]
	}
	tbl := engine.NewTable(tuple.NewSchema("g", "x"))
	for i := 0; i+3 < len(data); i += 4 {
		var g tuple.Value = tuple.Int(int64(data[i] % 4))
		if data[i]%4 == 3 {
			g = tuple.Null
		}
		var x tuple.Value
		switch k := int64(data[i+1] % 8); {
		case k < 3:
			x = tuple.Int(k)
		case k < 6:
			x = tuple.Float(float64(k) / 2)
		case k == 6:
			x = tuple.Float(1)
		default:
			x = tuple.Null
		}
		begin := int64(data[i+2]) % (fuzzDomain.Max - 1)
		span := int64(data[i+3]%16) + 1
		end := min(begin+span, fuzzDomain.Max)
		mult := int64(data[i+3]%3) + 1
		tbl.Append(tuple.Tuple{g, x}, interval.New(begin, end), mult)
	}
	return tbl
}

// FuzzSweepsEmitUniqueEncoding checks that the aggregation and
// difference sweeps emit the unique coalesced encoding themselves,
// which is what lets the planner drop the final coalesce above them.
// Each sweep's output must pass IsCoalesced; the aggregation must also
// equal the coalesced naive split-and-hash aggregation, and the
// difference the per-time-point ℕ-monus oracle. The seeds cover
// ties, boundaries where one interval ends as another begins (a zero
// net delta), duplicates, and NULL and float arguments.
func FuzzSweepsEmitUniqueEncoding(f *testing.F) {
	// Chunks are (group or side, argument or value, begin, span-1), with
	// the span byte also picking the multiplicity (byte%3 + 1), and the
	// difference reading each 4-byte chunk as one row as well.
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 3, 0, 1, 4, 3})                          // [0,4) then [4,8), equal values: a zero delta at 4
	f.Add([]byte{0, 1, 0, 3, 0, 2, 4, 3, 0, 1, 8, 3})              // values change at 4, change back at 8
	f.Add([]byte{0, 1, 0, 3, 0, 1, 0, 6})                          // a tie at 0, and a duplicated row
	f.Add([]byte{0, 1, 0, 15, 1, 1, 4, 3})                         // a right row splits a left one
	f.Add([]byte{0, 6, 0, 3, 0, 1, 4, 3, 0, 4, 8, 3, 0, 7, 12, 3}) // 1.0 next to 1, a float, a NULL argument
	f.Add([]byte{3, 7, 0, 9, 3, 7, 0, 9, 3, 2, 9, 6})              // NULL group, NULL arguments, duplicates
	f.Add([]byte{0, 2, 5, 6, 1, 2, 5, 6, 0, 2, 5, 2, 1, 2})        // same-instant begins on both sides
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl := decodeFuzzAggTable(data)
		aggs := []algebra.AggSpec{
			{Fn: krel.CountStar, As: "cnt"},
			{Fn: krel.Count, Arg: "x", As: "n"},
			{Fn: krel.Sum, Arg: "x", As: "s"},
			{Fn: krel.Avg, Arg: "x", As: "a"},
			{Fn: krel.Min, Arg: "x", As: "lo"},
			{Fn: krel.Max, Arg: "x", As: "hi"},
		}
		for _, groupBy := range [][]string{{"g"}, nil} {
			got, err := engine.TemporalAggregate(tbl, groupBy, aggs, true, fuzzDomain)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := engine.TemporalAggregate(tbl, groupBy, aggs, false, fuzzDomain)
			if err != nil {
				t.Fatal(err)
			}
			want := engine.Coalesce(naive, engine.CoalesceNative)
			if !engine.IsCoalesced(got, engine.CoalesceNative) {
				t.Fatalf("aggregation (group by %v) is not coalesced\ninput:\n%s\noutput:\n%s", groupBy, tbl, got)
			}
			if !sameCounts(multisetKeys(want), multisetKeys(got)) {
				t.Fatalf("aggregation (group by %v) differs from the coalesced naive split\ninput:\n%s\nwant:\n%s\ngot:\n%s", groupBy, tbl, want, got)
			}
		}

		l, r := decodeFuzzPair(data)
		got, err := engine.TemporalDiff(l, r)
		if err != nil {
			t.Fatal(err)
		}
		if !engine.IsCoalesced(got, engine.CoalesceNative) {
			t.Fatalf("difference is not coalesced\nleft:\n%s\nright:\n%s\noutput:\n%s", l, r, got)
		}
		if !sameCounts(monusTimePointCounts(l, r), timePointCounts(got)) {
			t.Fatalf("difference violates the per-time-point monus oracle\nleft:\n%s\nright:\n%s\noutput:\n%s", l, r, got)
		}
	})
}
