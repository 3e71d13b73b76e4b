//go:build snapdebug

// The snapdebug build tag compiles in a runtime assertion layer for
// the two engine invariants that static analysis cannot fully prove:
// begin-sort order of the sort enforcer's output, and immutability of
// yielded rows across Next calls. With the tag, CheckOrdered and
// CheckNoAlias wrap iterators with asserting shims that panic naming
// the offending operator; without it (snapdebug_off.go) they are
// identity functions the compiler erases. The qgen equivalence grids
// and the fuzz targets run with these wrappers in place, so a fuzzing
// run under `-tags snapdebug` fails at the operator that broke the
// invariant rather than at a downstream differential mismatch.
package engine

import (
	"fmt"

	"snapk/internal/tuple"
)

// DebugChecks reports whether the snapdebug assertion layer is
// compiled in.
func DebugChecks() bool { return true }

// CheckOrdered wraps in with an assertion that its rows are emitted in
// ascending begin order — the begin component of the canonical
// CompareEndpoints (begin, end) order, which the sort enforcer
// promises (Append-maintained tables are begin-sorted but not
// endpoint-sorted, so asserting the full order would reject valid
// streams). The op name
// appears in the panic diagnostic.
func CheckOrdered(op string, in RowIter) RowIter {
	if bi, ok := in.(BatchIter); ok {
		return &checkOrderedBatchIter{checkOrderedIter: checkOrderedIter{op: op, in: in}, bin: bi}
	}
	return &checkOrderedIter{op: op, in: in}
}

type checkOrderedIter struct {
	op   string
	in   RowIter
	last int64
	seen bool
}

func (it *checkOrderedIter) Schema() tuple.Schema { return it.in.Schema() }

func (it *checkOrderedIter) Next() (tuple.Tuple, bool) {
	row, ok := it.in.Next()
	if !ok {
		return nil, false
	}
	begin := rowInterval(row).Begin
	if it.seen && begin < it.last {
		panic(fmt.Sprintf("engine: snapdebug: %s emitted rows out of begin order (begin %d after %d)",
			it.op, begin, it.last))
	}
	it.last, it.seen = begin, true
	return row, true
}

func (it *checkOrderedIter) Close() { it.in.Close() }

// Err delegates the terminal error: the assertion shim never severs
// the error-carrying protocol.
func (it *checkOrderedIter) Err() error { return IterErr(it.in) }

// checkOrderedBatchIter is the batch-capable form of the order checker:
// wrapping a batch-capable input must not sever the NextBatch chain, so
// the assertion layer composes with batch execution instead of silently
// downgrading it to per-row. It additionally asserts the NextBatch
// return contract (true iff at least one row was delivered).
type checkOrderedBatchIter struct {
	checkOrderedIter
	bin BatchIter
}

func (it *checkOrderedBatchIter) NextBatch(b *RowBatch) bool {
	ok := it.bin.NextBatch(b)
	if ok != (b.Len() > 0) {
		panic(fmt.Sprintf("engine: snapdebug: %s broke the NextBatch contract (ok=%v with %d rows)",
			it.op, ok, b.Len()))
	}
	for _, row := range b.Rows {
		begin := rowInterval(row).Begin
		if it.seen && begin < it.last {
			panic(fmt.Sprintf("engine: snapdebug: %s emitted rows out of begin order (begin %d after %d)",
				it.op, begin, it.last))
		}
		it.last, it.seen = begin, true
	}
	return ok
}

// noAliasWindow bounds how many recently yielded rows CheckNoAlias
// keeps under observation. A small ring catches the realistic bug —
// an operator reusing a scratch row it just handed out — without
// retaining the whole stream.
const noAliasWindow = 64

// CheckNoAlias wraps in with an assertion that rows, once yielded, are
// never mutated by the producer: each of the last noAliasWindow rows
// is snapshotted at yield time and re-compared against its live
// backing array on every subsequent Next and on Close. It deliberately
// does not reject distinct yields sharing a backing array (scans of
// the same stored table legitimately do) — only observable mutation,
// the PR 1 corruption class. The op name appears in the panic
// diagnostic.
func CheckNoAlias(op string, in RowIter) RowIter {
	if bi, ok := in.(BatchIter); ok {
		return &checkNoAliasBatchIter{checkNoAliasIter: checkNoAliasIter{op: op, in: in}, bin: bi}
	}
	return &checkNoAliasIter{op: op, in: in}
}

type yieldedRow struct {
	live tuple.Tuple // the row as handed to the consumer
	snap tuple.Tuple // private copy taken at yield time
}

type checkNoAliasIter struct {
	op   string
	in   RowIter
	ring [noAliasWindow]yieldedRow
	n    int // rows yielded so far
}

func (it *checkNoAliasIter) Schema() tuple.Schema { return it.in.Schema() }

func (it *checkNoAliasIter) Next() (tuple.Tuple, bool) {
	it.verify()
	row, ok := it.in.Next()
	if !ok {
		return nil, false
	}
	it.ring[it.n%noAliasWindow] = yieldedRow{live: row, snap: row.Clone()}
	it.n++
	return row, true
}

func (it *checkNoAliasIter) Close() {
	it.verify()
	it.in.Close()
}

// Err delegates the terminal error: the assertion shim never severs
// the error-carrying protocol.
func (it *checkNoAliasIter) Err() error { return IterErr(it.in) }

// checkNoAliasBatchIter is the batch-capable form of the mutation
// checker: every row of a delivered batch joins the snapshot ring, and
// the ring is re-verified before each subsequent NextBatch — which is
// exactly where the batch-boundary aliasing class bites (a producer
// reusing row backing arrays when it refills its batch). The batch's
// row SLICE being reused is legal and not flagged; mutation of the row
// tuples themselves is the violation.
type checkNoAliasBatchIter struct {
	checkNoAliasIter
	bin BatchIter
}

func (it *checkNoAliasBatchIter) NextBatch(b *RowBatch) bool {
	it.verify()
	ok := it.bin.NextBatch(b)
	if ok != (b.Len() > 0) {
		panic(fmt.Sprintf("engine: snapdebug: %s broke the NextBatch contract (ok=%v with %d rows)",
			it.op, ok, b.Len()))
	}
	for _, row := range b.Rows {
		it.ring[it.n%noAliasWindow] = yieldedRow{live: row, snap: row.Clone()}
		it.n++
	}
	return ok
}

// CheckErrChecked wraps the stream ROOT with an assertion of the
// error-carrying protocol's first rule: a consumer that drives the
// stream to end-of-stream must consult Err before Close. With the tag,
// an exhausted-then-Closed root whose Err was never called panics
// naming op — the drain site that would silently swallow a truncation.
// An early Close (the stream never reported end) is legal and not
// flagged: abandoning a stream is not the same as mistaking a failed
// one for complete.
func CheckErrChecked(op string, in RowIter) RowIter {
	if bi, ok := in.(BatchIter); ok {
		return &checkErrCheckedBatchIter{checkErrCheckedIter: checkErrCheckedIter{op: op, in: in}, bin: bi}
	}
	return &checkErrCheckedIter{op: op, in: in}
}

type checkErrCheckedIter struct {
	op      string
	in      RowIter
	eos     bool // the stream reported end-of-stream to the consumer
	checked bool // Err was consulted
}

func (it *checkErrCheckedIter) Schema() tuple.Schema { return it.in.Schema() }

func (it *checkErrCheckedIter) Next() (tuple.Tuple, bool) {
	row, ok := it.in.Next()
	if !ok {
		it.eos = true
	}
	return row, ok
}

func (it *checkErrCheckedIter) Err() error {
	it.checked = true
	return IterErr(it.in)
}

func (it *checkErrCheckedIter) Close() {
	if it.eos && !it.checked {
		panic(fmt.Sprintf("engine: snapdebug: %s drained to end-of-stream and Closed without checking Err — a truncated stream would pass for complete", it.op))
	}
	it.in.Close()
}

type checkErrCheckedBatchIter struct {
	checkErrCheckedIter
	bin BatchIter
}

func (it *checkErrCheckedBatchIter) NextBatch(b *RowBatch) bool {
	ok := it.bin.NextBatch(b)
	if !ok {
		it.eos = true
	}
	return ok
}

func (it *checkNoAliasIter) verify() {
	held := it.n
	if held > noAliasWindow {
		held = noAliasWindow
	}
	for i := 0; i < held; i++ {
		y := it.ring[i]
		if len(y.live) != len(y.snap) {
			panic(fmt.Sprintf("engine: snapdebug: %s mutated a yielded row after Next (length %d -> %d)",
				it.op, len(y.snap), len(y.live)))
		}
		for c := range y.live {
			if y.live[c] != y.snap[c] {
				panic(fmt.Sprintf("engine: snapdebug: %s mutated a yielded row after Next (column %d: %v -> %v)",
					it.op, c, y.snap[c], y.live[c]))
			}
		}
	}
}
