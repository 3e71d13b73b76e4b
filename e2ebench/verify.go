package main

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"snapk"
	"snapk/internal/engine"
)

// resultRow is one period-encoded result row as the client read it.
type resultRow struct {
	vals       []any
	begin, end int64
}

// appendValue appends a self-delimiting encoding of v. With exact unset,
// floats are rounded to 10 significant digits, so results that summed
// the same numbers in another order still match; the unique-encoding
// check uses exact bits, the equality coalescing itself applies.
func appendValue(b []byte, v any, exact bool) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, 'N')
	case int64:
		return binary.LittleEndian.AppendUint64(append(b, 'I'), uint64(x))
	case float64:
		if exact {
			return binary.LittleEndian.AppendUint64(append(b, 'F'), math.Float64bits(x))
		}
		s := strconv.FormatFloat(x, 'g', 10, 64)
		return append(append(append(b, 'F'), s...), 0)
	case string:
		b = binary.LittleEndian.AppendUint32(append(b, 'S'), uint32(len(x)))
		return append(b, x...)
	case bool:
		if x {
			return append(b, 'T')
		}
		return append(b, 'f')
	default:
		return fmt.Appendf(append(b, '?'), "%T:%v", v, v)
	}
}

func appendValues(b []byte, vals []any, exact bool) []byte {
	for _, v := range vals {
		b = appendValue(b, v, exact)
	}
	return b
}

// fingerprint identifies a result as a multiset of rows, independent of
// row order: the row count and the wrapping sum of per-row hashes.
type fingerprint struct {
	rows int
	sum  uint64
}

func (f fingerprint) String() string { return fmt.Sprintf("%d rows/%016x", f.rows, f.sum) }

// hasher holds the per-process hash seed; fingerprints are only compared
// within one process.
type hasher struct {
	seed maphash.Seed
	buf  []byte
}

func newHasher() *hasher { return &hasher{seed: maphash.MakeSeed()} }

func (h *hasher) rowHash(vals []any, begin, end int64) uint64 {
	h.buf = appendValues(h.buf[:0], vals, false)
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(begin))
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(end))
	return maphash.Bytes(h.seed, h.buf)
}

func (h *hasher) ofRows(rows []resultRow) fingerprint {
	f := fingerprint{rows: len(rows)}
	for _, r := range rows {
		f.sum += h.rowHash(r.vals, r.begin, r.end)
	}
	return f
}

func (h *hasher) ofResult(res *snapk.Result) fingerprint {
	f := fingerprint{rows: len(res.Rows)}
	for _, r := range res.Rows {
		f.sum += h.rowHash(r.Values, r.Begin, r.End)
	}
	return f
}

// checkUniqueEncoding reports whether rows are the unique K-coalesced
// encoding of a multiset period relation: for every data tuple, equal
// periods are duplicates carrying the multiplicity, distinct periods do
// not overlap, and two adjacent periods differ in multiplicity (else
// they would have been merged).
func checkUniqueEncoding(rows []resultRow) error {
	type keyed struct {
		key        string
		begin, end int64
	}
	ks := make([]keyed, len(rows))
	var buf []byte
	for i, r := range rows {
		if r.begin >= r.end {
			return fmt.Errorf("empty period [%d, %d)", r.begin, r.end)
		}
		buf = appendValues(buf[:0], r.vals, true)
		ks[i] = keyed{string(buf), r.begin, r.end}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.begin, b.begin), cmp.Compare(a.end, b.end))
	})
	for i := 0; i < len(ks); {
		j := i + 1
		for j < len(ks) && ks[j] == ks[i] {
			j++
		}
		if j < len(ks) && ks[j].key == ks[i].key {
			next := j + 1
			for next < len(ks) && ks[next] == ks[j] {
				next++
			}
			switch {
			case ks[j].begin < ks[i].end:
				return fmt.Errorf("periods [%d, %d) and [%d, %d) of one tuple overlap", ks[i].begin, ks[i].end, ks[j].begin, ks[j].end)
			case ks[j].begin == ks[i].end && next-j == j-i:
				return fmt.Errorf("adjacent periods [%d, %d) and [%d, %d) of one tuple share multiplicity %d", ks[i].begin, ks[i].end, ks[j].begin, ks[j].end, j-i)
			}
		}
		i = j
	}
	return nil
}

// multiset counts rows by their rounded-float encoding.
type multiset map[string]int

func multisetOf(rows [][]any) multiset {
	m := multiset{}
	var buf []byte
	for _, r := range rows {
		buf = appendValues(buf[:0], r, false)
		m[string(buf)]++
	}
	return m
}

// snapshotAt is the timeslice τ_t of a result: the data rows whose
// period contains t.
func snapshotAt(rows []resultRow, t int64) multiset {
	m := multiset{}
	var buf []byte
	for _, r := range rows {
		if r.begin <= t && t < r.end {
			buf = appendValues(buf[:0], r.vals, false)
			m[string(buf)]++
		}
	}
	return m
}

func (a multiset) equal(b multiset) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

func (a multiset) size() int {
	n := 0
	for _, c := range a {
		n += c
	}
	return n
}

// spot is the snapshot a result must have at time t.
type spot struct {
	t    int64
	want multiset
}

// expectation is what a timed query result must match: the fingerprint
// of the same query on the materializing executor, and its snapshots at
// a few time points.
type expectation struct {
	fp    fingerprint
	spots []spot
}

// verify checks a timed result three ways: fingerprint against the
// independent executor, snapshot spot checks against the oracle, and
// the unique encoding.
func verify(h *hasher, rows []resultRow, exp *expectation) (fingerprint, error) {
	fp := h.ofRows(rows)
	if fp != exp.fp {
		return fp, fmt.Errorf("fingerprint %v, materializing executor gives %v", fp, exp.fp)
	}
	for _, s := range exp.spots {
		if got := snapshotAt(rows, s.t); !got.equal(s.want) {
			return fp, fmt.Errorf("snapshot at t=%d has %d rows, oracle gives %d (or rows differ)", s.t, got.size(), s.want.size())
		}
	}
	if err := checkUniqueEncoding(rows); err != nil {
		return fp, fmt.Errorf("not the unique encoding: %w", err)
	}
	return fp, nil
}

// expecter computes expectations outside the clock.
type expecter struct {
	w    *workloadDef
	h    *hasher
	db   *snapk.DB
	data *engine.DB
	// fixed holds the read-only workloads' expectations per template.
	fixed map[string]*expectation
}

// spotsPerTemplate is the number of seeded time points at which each
// template of a read-only workload is spot-checked.
const spotsPerTemplate = 2

// newExpecter prepares verification for db, whose contents equal data.
// For read-only workloads it computes every template's expectation now.
func newExpecter(w *workloadDef, h *hasher, db *snapk.DB, data *engine.DB, seed int64) (*expecter, error) {
	e := &expecter{w: w, h: h, db: db, data: data}
	if !w.readOnly {
		return e, nil
	}
	r := rand.New(rand.NewSource(seed ^ 0x7e57))
	dom := data.Domain()
	times := make([]int64, spotsPerTemplate)
	for i := range times {
		times[i] = dom.Min + r.Int63n(dom.Max-dom.Min)
	}
	e.fixed = map[string]*expectation{}
	for _, o := range w.warmup(seed) {
		exp, err := e.compute(o, times)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", o.tmpl, err)
		}
		e.fixed[o.tmpl] = exp
	}
	return e, nil
}

func (e *expecter) expect(o *op) (*expectation, error) {
	if e.fixed != nil {
		exp, ok := e.fixed[o.tmpl]
		if !ok {
			return nil, fmt.Errorf("no reference for template %s", o.tmpl)
		}
		return exp, nil
	}
	return e.compute(o, o.spots)
}

func (e *expecter) compute(o *op, times []int64) (*expectation, error) {
	res, err := e.db.QueryWith(o.sql, snapk.SeqMaterialized)
	if err != nil {
		return nil, err
	}
	exp := &expectation{fp: e.h.ofResult(res)}
	oracleSQL := cmp.Or(o.oracleSQL, o.sql)
	for _, t := range times {
		var rows [][]any
		if e.w.snapshotOracle {
			rows, err = e.db.QueryAt(oracleSQL, t)
		} else {
			rows, err = slicedQuery(e.w, e.data, oracleSQL, t)
		}
		if err != nil {
			return nil, fmt.Errorf("snapshot at %d: %w", t, err)
		}
		exp.spots = append(exp.spots, spot{t: t, want: multisetOf(rows)})
	}
	return exp, nil
}

// slicedQuery evaluates sql over the snapshot of data at t: a database
// over the one-point domain [t, t+1) holding the rows valid at t, run on
// the materializing executor. Snapshot reducibility says its result is
// the snapshot at t of the full temporal result.
func slicedQuery(w *workloadDef, data *engine.DB, sql string, t int64) ([][]any, error) {
	db := snapk.New(t, t+1)
	for _, name := range w.tables {
		src, err := data.Table(name)
		if err != nil {
			return nil, err
		}
		tbl, err := db.CreateTable(name, src.DataSchema().Cols...)
		if err != nil {
			return nil, err
		}
		vals := make([]any, src.DataArity())
		for _, row := range src.Rows {
			if !src.Interval(row).Contains(t) {
				continue
			}
			for i := range vals {
				vals[i] = toAny(row[i])
			}
			if err := tbl.Insert(t, t+1, vals...); err != nil {
				return nil, err
			}
		}
	}
	res, err := db.QueryWith(sql, snapk.SeqMaterialized)
	if err != nil {
		return nil, err
	}
	return res.At(t), nil
}
