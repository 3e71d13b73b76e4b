package engine_test

import (
	"fmt"
	"testing"

	"snapk/internal/engine"
	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// fuzzDomain is the time domain of the coalesce fuzz harness: small
// enough that the per-time-point oracle stays cheap, large enough for
// nontrivial overlap structure.
var fuzzDomain = interval.NewDomain(0, 32)

// decodeFuzzTable decodes 3-byte chunks of fuzz data into an interval
// multiset over a single data column: (value, begin, span-and-
// multiplicity). Every decoded row is valid within fuzzDomain.
func decodeFuzzTable(data []byte) *engine.Table {
	// Cap the decoded row count: beyond a few hundred rows the fuzzer
	// stops finding new structure and the quadratic oracle dominates.
	if len(data) > 300 {
		data = data[:300]
	}
	tbl := engine.NewTable(tuple.NewSchema("v"))
	for i := 0; i+2 < len(data); i += 3 {
		v := int64(data[i] % 5)
		var val tuple.Value = tuple.Int(v)
		if v == 4 {
			val = tuple.Null // NULL is an ordinary data value for coalescing
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
	return tbl
}

// timePointCounts is the naive oracle: for every (value, time point),
// the number of rows whose interval covers the point, counting
// duplicates.
func timePointCounts(t *engine.Table) map[string]int {
	counts := make(map[string]int)
	for _, row := range t.Rows {
		iv := t.Interval(row)
		key := row[:1].Key()
		for p := iv.Begin; p < iv.End; p++ {
			counts[fmt.Sprintf("%s@%d", key, p)]++
		}
	}
	return counts
}

func multisetKeys(t *engine.Table) map[string]int {
	m := make(map[string]int)
	for _, row := range t.Rows {
		m[row.Key()]++
	}
	return m
}

func sameCounts(a, b map[string]int) bool {
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

// decodeFuzzPair decodes 4-byte chunks of fuzz data into TWO interval
// multisets — (side, value, begin, span-and-multiplicity) — the
// left/right inputs of a difference. Both sides draw values from the
// same small domain, so groups routinely exist on both sides and the ℕ
// monus has real truncation work.
func decodeFuzzPair(data []byte) (l, r *engine.Table) {
	if len(data) > 400 {
		data = data[:400]
	}
	l = engine.NewTable(tuple.NewSchema("v"))
	r = engine.NewTable(tuple.NewSchema("v"))
	for i := 0; i+3 < len(data); i += 4 {
		tbl := l
		if data[i]%2 == 1 {
			tbl = r
		}
		v := int64(data[i+1] % 5)
		var val tuple.Value = tuple.Int(v)
		if v == 4 {
			val = tuple.Null // NULL is an ordinary data value for differencing
		}
		begin := int64(data[i+2]) % (fuzzDomain.Max - 1)
		span := int64(data[i+3]%16) + 1
		end := begin + span
		if end > fuzzDomain.Max {
			end = fuzzDomain.Max
		}
		mult := int64(data[i+3]%3) + 1
		tbl.Append(tuple.Tuple{val}, interval.New(begin, end), mult)
	}
	return l, r
}

// monusTimePointCounts is the naive difference oracle: for every
// (value, time point), max(0, |left rows covering it| − |right rows
// covering it|) — the ℕ-monus snapshot semantics, zero entries elided.
func monusTimePointCounts(l, r *engine.Table) map[string]int {
	counts := timePointCounts(l)
	for k, rc := range timePointCounts(r) {
		lc := counts[k]
		if lc <= rc {
			delete(counts, k)
		} else {
			counts[k] = lc - rc
		}
	}
	return counts
}

// FuzzStreamDiff checks the temporal difference, run through the
// streaming executor, against the naive per-time-point ℕ-monus oracle
// on arbitrary interval-multiset pairs: the result must realize every
// snapshot's monus and be the unique encoding (no boundary at a
// zero-net-delta endpoint), under both per-row and batch drive. The
// seeds cover same-instant begins on both sides and monus truncation
// (right side exceeding the left).
func FuzzStreamDiff(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 9})
	f.Add([]byte{0, 1, 0, 9, 1, 1, 2, 3})                         // simple overlap
	f.Add([]byte{0, 1, 0, 4, 1, 1, 1, 10, 1, 1, 1, 10})           // monus truncation: right exceeds left
	f.Add([]byte{0, 2, 5, 6, 1, 2, 5, 6, 0, 2, 5, 2, 1, 2, 8, 2}) // same-instant begins on both sides
	f.Add([]byte{0, 3, 0, 4, 0, 3, 4, 4, 1, 3, 2, 4})             // adjacent left chain split by a right row
	f.Add([]byte{1, 0, 0, 15, 1, 0, 3, 15})                       // right-only groups emit nothing
	f.Fuzz(func(t *testing.T, data []byte) {
		l, r := decodeFuzzPair(data)
		want := monusTimePointCounts(l, r)
		plan := engine.DiffP{L: engine.ScanP{Name: "l"}, R: engine.ScanP{Name: "r"}}
		db := diffDB(l, r)
		for _, batch := range []bool{false, true} {
			it, err := db.ExecStream(plan)
			if err != nil {
				t.Fatal(err)
			}
			// Under -tags snapdebug this asserts the no-mutation contract
			// at the executor root, before the oracle comparison runs.
			it = engine.CheckNoAlias("difference", it)
			drive := it
			if batch {
				// An awkward capacity: the NextBatch path must produce the
				// identical multiset.
				drive = engine.NewRowAdapter(it.(engine.BatchIter), 3)
			}
			got, err := engine.MaterializeErr(drive)
			it.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !sameCounts(want, timePointCounts(got)) {
				t.Fatalf("difference (batch=%v) violates the per-time-point monus oracle\nleft:\n%s\nright:\n%s\noutput:\n%s", batch, l, r, got)
			}
			if !engine.IsCoalesced(got, engine.CoalesceNative) {
				t.Fatalf("difference (batch=%v) is not the unique encoding\nleft:\n%s\nright:\n%s\noutput:\n%s", batch, l, r, got)
			}
		}
	})
}

// FuzzCoalesce checks the coalesce operator against the naive
// per-time-point oracle on arbitrary interval multisets: it must
// preserve every snapshot multiplicity and produce a coalesced (unique)
// encoding.
func FuzzCoalesce(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 5})
	f.Add([]byte{1, 3, 9, 1, 3, 9, 2, 0, 31})
	f.Add([]byte{0, 0, 4, 0, 4, 4, 0, 8, 4})    // adjacent same-value chains
	f.Add([]byte{3, 0, 15, 3, 5, 15, 3, 10, 2}) // overlaps within one group
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl := decodeFuzzTable(data)
		out := engine.Coalesce(tbl, engine.CoalesceNative)
		// Oracle: coalescing never changes any snapshot.
		if want, got := timePointCounts(tbl), timePointCounts(out); !sameCounts(want, got) {
			t.Fatalf("coalesce changed snapshot multiplicities\ninput:\n%s\noutput:\n%s", tbl, out)
		}
		// Uniqueness: the output must be its own coalesced encoding.
		if !engine.IsCoalesced(out, engine.CoalesceNative) {
			t.Fatalf("coalesce output is not coalesced\ninput:\n%s\noutput:\n%s", tbl, out)
		}
	})
}
