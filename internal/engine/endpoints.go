package engine

import (
	"cmp"
	"slices"

	"snapk/internal/interval"
	"snapk/internal/tuple"
)

// This file is the single source of truth for interval-endpoint order
// over period-encoded rows. Every operator that sorts by or relies on
// endpoint order — the sort enforcer, the sweeps, the overlap join,
// Table.Sort and IsCoalesced — goes through these helpers, so the
// sort semantics cannot drift between per-file copies.

// CompareEndpoints compares two period rows by (begin, end), the
// canonical interval-endpoint order of the sweep operators. Direct
// comparisons, not subtraction: extreme timestamps (e.g. int64
// sentinels for ±infinity in user-supplied domains) must not overflow.
func CompareEndpoints(a, b tuple.Tuple) int {
	na, nb := len(a), len(b)
	switch ab, bb := a[na-2].AsInt(), b[nb-2].AsInt(); {
	case ab < bb:
		return -1
	case ab > bb:
		return 1
	}
	switch ae, be := a[na-1].AsInt(), b[nb-1].AsInt(); {
	case ae < be:
		return -1
	case ae > be:
		return 1
	default:
		return 0
	}
}

// EndpointLess reports whether a precedes b in endpoint order.
func EndpointLess(a, b tuple.Tuple) bool { return CompareEndpoints(a, b) < 0 }

// SortRowsByEndpoints sorts rows in place into endpoint order, stably:
// rows with equal (begin, end) keep their input order. It sorts flat
// (begin, end, index) keys — the index makes every key distinct, so the
// unstable pdqsort is stable — and then permutes the rows.
func SortRowsByEndpoints(rows []tuple.Tuple) {
	type key struct {
		begin, end interval.Time
		i          int
	}
	keys := make([]key, len(rows))
	for i, row := range rows {
		iv := rowInterval(row)
		keys[i] = key{iv.Begin, iv.End, i}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.begin != b.begin {
			return cmp.Compare(a.begin, b.begin)
		}
		if a.end != b.end {
			return cmp.Compare(a.end, b.end)
		}
		return cmp.Compare(a.i, b.i)
	})
	src := slices.Clone(rows)
	for i, k := range keys {
		rows[i] = src[k.i]
	}
}

// RowsBeginSorted reports whether rows are already ordered by ascending
// interval begin — the property Table.BeginSorted caches and window
// pruning relies on.
func RowsBeginSorted(rows []tuple.Tuple) bool {
	for i := 1; i < len(rows); i++ {
		if rowInterval(rows[i]).Begin < rowInterval(rows[i-1]).Begin {
			return false
		}
	}
	return true
}
