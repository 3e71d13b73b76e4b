package parallel_test

import (
	"context"
	"fmt"
	"testing"

	"snapk/internal/algebra"
	"snapk/internal/engine"
	"snapk/internal/engine/parallel"
	"snapk/internal/interval"
	"snapk/internal/krel"
	"snapk/internal/tuple"
)

// fuzzDomain is the time domain of the parallel sweep fuzz harness.
var fuzzDomain = interval.NewDomain(0, 32)

// decodeFuzzDB decodes 3-byte chunks of fuzz data into a single-column
// stored table (value, begin, span-and-multiplicity) and returns the
// database holding it.
func decodeFuzzDB(data []byte) (*engine.DB, *engine.Table) {
	if len(data) > 300 {
		data = data[:300]
	}
	tbl := engine.NewTable(tuple.NewSchema("v"))
	for i := 0; i+2 < len(data); i += 3 {
		v := int64(data[i] % 5)
		var val tuple.Value = tuple.Int(v)
		if v == 4 {
			val = tuple.Null // NULL is an ordinary data value for sweeping
		}
		begin := int64(data[i+1]) % (fuzzDomain.Max - 1)
		span := int64(data[i+2]%16) + 1
		end := begin + span
		if end > fuzzDomain.Max {
			end = fuzzDomain.Max
		}
		mult := int64(data[i+2]%3) + 1
		tbl.Append(tuple.Tuple{val}, interval.New(begin, end), mult)
	}
	db := engine.NewDB(fuzzDomain)
	db.AddTable("t", tbl)
	return db, tbl
}

func fuzzMultiset(t *engine.Table) map[string]int {
	m := make(map[string]int)
	for _, row := range t.Rows {
		m[row.Key()]++
	}
	return m
}

// pointCounts is the naive per-time-point oracle: for every (data
// tuple, time point), the number of rows whose interval covers it.
func pointCounts(t *engine.Table) map[string]int {
	counts := make(map[string]int)
	for _, row := range t.Rows {
		iv := t.Interval(row)
		key := row[:len(row)-2].Key()
		for p := iv.Begin; p < iv.End; p++ {
			counts[fmt.Sprintf("%s@%d", key, p)]++
		}
	}
	return counts
}

// monusPointCounts is the per-time-point ℕ-monus oracle of l − r, zero
// entries elided.
func monusPointCounts(l, r *engine.Table) map[string]int {
	counts := pointCounts(l)
	for k, rc := range pointCounts(r) {
		if counts[k] <= rc {
			delete(counts, k)
		} else {
			counts[k] -= rc
		}
	}
	return counts
}

func fuzzSameCounts(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// FuzzParStreamSweep checks the hash-partitioned parallel sweeps —
// per-worker coalesce, difference and pre-aggregated split over their
// materialized partitions, streamed through the merge exchange —
// against the oracles on arbitrary interval multisets: coalesce and
// difference against the per-time-point multiplicities (and the unique
// encoding), aggregation against the coalesced naive split.
func FuzzParStreamSweep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5})
	f.Add([]byte{1, 3, 9, 1, 3, 9, 2, 0, 31})
	f.Add([]byte{0, 0, 4, 0, 4, 4, 0, 8, 4})    // adjacent same-value chains
	f.Add([]byte{3, 0, 15, 3, 5, 15, 3, 10, 2}) // overlaps within one group
	f.Fuzz(func(t *testing.T, data []byte) {
		db, tbl := decodeFuzzDB(data)
		ctx := context.Background()
		opt := parallel.Options{Workers: 3, MorselSize: 4}
		run := func(p engine.Plan, o parallel.Options) *engine.Table {
			t.Helper()
			it, err := parallel.Exec(ctx, db, p, o)
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

		// Parallel coalesce across the batch-hop settings: morsel-tied
		// (0), per-row ablation (-1) and a batch size mismatching the
		// morsel (3).
		for _, bs := range []int{0, -1, 3} {
			bopt := opt
			bopt.BatchSize = bs
			got := run(engine.CoalesceP{In: engine.ScanP{Name: "t"}}, bopt)
			if !fuzzSameCounts(pointCounts(tbl), pointCounts(got)) {
				t.Fatalf("parallel coalesce (BatchSize %d) changed snapshot multiplicities\ninput:\n%s\ngot:\n%s", bs, tbl, got)
			}
			if !engine.IsCoalesced(got, engine.CoalesceNative) {
				t.Fatalf("parallel coalesce (BatchSize %d) is not coalesced\ninput:\n%s\ngot:\n%s", bs, tbl, got)
			}
		}

		// Parallel difference (both sides hash-partitioned on the full
		// data tuple) against the per-time-point monus. The table is
		// differenced against a shifted copy of itself so value-equivalent
		// groups exist on both sides and the monus has truncation work.
		shifted := engine.NewTable(tuple.Schema{Cols: tbl.Schema.Cols[:1]})
		for _, row := range tbl.Rows {
			iv := tbl.Interval(row)
			end := iv.End + 2
			if end > fuzzDomain.Max {
				end = fuzzDomain.Max
			}
			if iv.Begin+1 < end {
				shifted.Append(row[:1], interval.New(iv.Begin+1, end), 1)
			}
		}
		db.AddTable("u", shifted)
		gotDiff := run(engine.DiffP{L: engine.ScanP{Name: "t"}, R: engine.ScanP{Name: "u"}}, opt)
		if !fuzzSameCounts(monusPointCounts(tbl, shifted), pointCounts(gotDiff)) {
			t.Fatalf("parallel difference violates the per-time-point monus oracle\nleft:\n%s\nright:\n%s\ngot:\n%s",
				tbl, shifted, gotDiff)
		}
		if !engine.IsCoalesced(gotDiff, engine.CoalesceNative) {
			t.Fatalf("parallel difference is not coalesced\nleft:\n%s\nright:\n%s\ngot:\n%s", tbl, shifted, gotDiff)
		}

		// Parallel pre-aggregated split against the coalesced naive
		// split, grouped (partitioned path) and global (sequential sweep
		// over the merged input).
		aggs := []algebra.AggSpec{{Fn: krel.CountStar, As: "cnt"}}
		for _, groupBy := range [][]string{{"v"}, nil} {
			naive, err := engine.TemporalAggregate(tbl, groupBy, aggs, false, fuzzDomain)
			if err != nil {
				t.Fatal(err)
			}
			wantAgg := engine.Coalesce(naive, engine.CoalesceNative)
			gotAgg := run(engine.AggP{GroupBy: groupBy, Aggs: aggs, PreAgg: true, In: engine.ScanP{Name: "t"}}, opt)
			if !fuzzSameCounts(fuzzMultiset(wantAgg), fuzzMultiset(gotAgg)) {
				t.Fatalf("parallel aggregation (groupBy %v) diverges from the coalesced naive split\ninput:\n%s\nwant:\n%s\ngot:\n%s",
					groupBy, tbl, wantAgg, gotAgg)
			}
		}
	})
}
