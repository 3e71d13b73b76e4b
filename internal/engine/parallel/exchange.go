package parallel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"snapk/internal/engine"
	"snapk/internal/tuple"
)

// batch is the unit of exchange between pipeline fragments: a bounded
// slice of period-encoded rows. Batching amortizes channel synchronization
// over many rows, which is what makes exchange operators cheaper than a
// channel send per row. Each transport batch is freshly allocated by its
// producer and handed over wholesale, so consumer-side iterators may
// adopt it directly as an engine.RowBatch row slice — the zero-copy
// batch pass-through of the vectorized hop.
type batch []tuple.Tuple

// capOf returns the effective row capacity of a consumer-supplied
// batch (DefaultBatchSize for a zero-capacity one).
func capOf(b *engine.RowBatch) int {
	if c := b.Cap(); c > 0 {
		return c
	}
	return engine.DefaultBatchSize
}

// exchange owns the producer-side lifecycle of one exchange: a context
// derived from the execution context, canceled once EVERY consumer-side
// iterator of the exchange has been closed. This is what lets an
// iterator-level Close unblock producers parked on a bounded transport
// channel instead of stranding them until executor-level cancellation.
// The refcount counts consumers, not partitions: producers fan rows out
// to ALL partitions, so canceling on the first partition Close would
// truncate the still-live ones — only the last Close tears the
// producers down.
type exchange struct {
	ctx    context.Context
	cancel context.CancelFunc
	refs   atomic.Int32
}

// newExchange derives an exchange lifecycle with the given number of
// consumer-side iterators from the execution context.
func (e *executor) newExchange(consumers int) *exchange {
	ctx, cancel := context.WithCancel(e.ctx)
	x := &exchange{ctx: ctx, cancel: cancel}
	x.refs.Store(int32(consumers))
	return x
}

// release records one consumer Close; the last one cancels the
// exchange context and with it every producer blocked on a send.
func (x *exchange) release() {
	if x.refs.Add(-1) == 0 {
		x.cancel()
	}
}

// pullFunc returns the per-row read function of src for an exchange
// producer: when the batch hop is enabled and src is batch-capable, the
// child chain is pulled one batch at a time behind a row adapter (the
// producer's own loop stays per-row — hash routing is inherently
// per-row — but every deeper operator boundary amortizes). The adapter
// owns no resources beyond src, which the producer closes itself.
func (e *executor) pullFunc(src engine.RowIter) func() (tuple.Tuple, bool) {
	if bi, ok := src.(engine.BatchIter); ok && e.batchSize > 0 {
		return engine.NewRowAdapter(bi, e.batchSize).Next
	}
	return src.Next
}

// morselTableIter is the partitioned scan source: workers claim morsels
// (contiguous row ranges) of a shared table through an atomic cursor, so
// fragment load balances even when per-row costs are skewed. One iterator
// per worker; the counter is shared across all of them.
type morselTableIter struct {
	t      *engine.Table
	ctr    *atomic.Int64
	size   int
	i, end int // current claimed morsel [i, end)
}

func (it *morselTableIter) Schema() tuple.Schema { return it.t.Schema }

func (it *morselTableIter) Next() (tuple.Tuple, bool) {
	for {
		if it.i < it.end {
			row := it.t.Rows[it.i]
			it.i++
			return row, true
		}
		start := int(it.ctr.Add(int64(it.size))) - it.size
		if start >= len(it.t.Rows) {
			return nil, false
		}
		end := start + it.size
		if end > len(it.t.Rows) {
			end = len(it.t.Rows)
		}
		it.i, it.end = start, end
	}
}

// NextBatch hands out the remainder of the claimed morsel (up to the
// consumer's capacity) as one slice append — the partitioned sibling of
// tableIter.NextBatch.
func (it *morselTableIter) NextBatch(b *engine.RowBatch) bool {
	b.Reset()
	limit := capOf(b)
	for {
		if it.i < it.end {
			n := it.end - it.i
			if n > limit {
				n = limit
			}
			b.Rows = append(b.Rows, it.t.Rows[it.i:it.i+n]...)
			it.i += n
			return true
		}
		start := int(it.ctr.Add(int64(it.size))) - it.size
		if start >= len(it.t.Rows) {
			return false
		}
		end := start + it.size
		if end > len(it.t.Rows) {
			end = len(it.t.Rows)
		}
		it.i, it.end = start, end
	}
}

func (it *morselTableIter) Close() {}

// chanIter is the receiving end of a repartition exchange: one of W
// worker-side iterators pulling batches from a shared channel fed by a
// distributor goroutine, read through a chanCursor.
type chanIter struct {
	x      *exchange
	schema tuple.Schema
	cur    chanCursor
	closed bool
}

func (it *chanIter) Schema() tuple.Schema { return it.schema }

func (it *chanIter) Next() (tuple.Tuple, bool) { return it.cur.next(it.x.ctx) }

// NextBatch adopts a whole transport batch when the cursor is at a
// batch boundary — the zero-copy pass-through.
func (it *chanIter) NextBatch(b *engine.RowBatch) bool {
	return it.cur.nextBatch(it.x.ctx, b)
}

// Close releases this consumer's reference on the exchange; the last
// partition closed cancels the producers (see exchange).
func (it *chanIter) Close() {
	if !it.closed {
		it.closed = true
		it.x.release()
	}
}

// mergeIter is the merge exchange: W fragment goroutines each drain one
// per-worker iterator into batches and push them onto a shared bounded
// channel; the iterator pulls batches off in arrival order. Merge order
// is nondeterministic, which is sound because period relations are
// multisets. Goroutine lifetime is owned by the executor: cancellation
// of the execution context stops every producer, and the channel is
// closed once all of them have exited.
type mergeIter struct {
	x      *exchange
	schema tuple.Schema
	ch     <-chan batch
	cur    batch
	i      int
	closed bool
}

func (it *mergeIter) Schema() tuple.Schema { return it.schema }

func (it *mergeIter) Next() (tuple.Tuple, bool) {
	if it.x.ctx.Err() != nil {
		return nil, false
	}
	for {
		if it.i < len(it.cur) {
			row := it.cur[it.i]
			it.i++
			return row, true
		}
		b, ok := <-it.ch
		if !ok {
			return nil, false
		}
		it.cur, it.i = b, 0
	}
}

// NextBatch adopts one transport batch wholesale (transport batches are
// freshly allocated per send, so the hand-off is zero-copy); a partial
// batch left behind by per-row pulls is copied out first.
func (it *mergeIter) NextBatch(b *engine.RowBatch) bool {
	b.Reset()
	if it.i < len(it.cur) {
		b.Rows = append(b.Rows, it.cur[it.i:]...)
		it.cur, it.i = nil, 0
		return true
	}
	if it.x.ctx.Err() != nil {
		return false
	}
	nb, ok := <-it.ch
	if !ok {
		return false
	}
	b.Rows = nb
	return true
}

// Close releases the merge's single consumer reference, canceling the
// producers — closing a merged iterator before exhaustion no longer
// strands them on the bounded channel until executor teardown.
func (it *mergeIter) Close() {
	if !it.closed {
		it.closed = true
		it.x.release()
	}
}

// startMerge spawns one producer goroutine per part and returns the
// merged stream. Producers exit when their input is exhausted or the
// execution context is canceled; a closer goroutine closes the channel
// once all producers are done, which is how the consumer observes
// end-of-stream.
func (e *executor) startMerge(parts []engine.RowIter, parent *engine.OpStats) engine.RowIter {
	st := parent.Child("Exchange:merge", fmt.Sprintf("fanin=%d", len(parts)))
	schema := parts[0].Schema()
	x := e.newExchange(1)
	ch := make(chan batch, len(parts))
	var producers sync.WaitGroup
	for _, part := range parts {
		part := part
		producers.Add(1)
		e.wg.Add(1)
		go func() {
			// LIFO: part.Close and producers.Done run first, so a panic in
			// either is still caught by recoverPanic before wg.Done releases
			// the executor's reaper.
			defer e.wg.Done()
			defer e.recoverPanic("exchange:merge producer")
			defer producers.Done()
			defer part.Close()
			e.drainInto(x.ctx, part, ch, st, false)
		}()
	}
	e.wg.Add(1)
	//lint:leakcheck bounded by construction: waits only on producers that are themselves cancellation-aware via drainInto
	go func() {
		defer e.wg.Done()
		defer e.recoverPanic("exchange:merge closer")
		producers.Wait()
		close(ch)
	}()
	return engine.NewObsIter(e.inject("exchange:merge", &mergeIter{x: x, schema: schema, ch: ch}), st)
}

// send pushes one transport batch onto ch, recording the backpressure
// wait on BOTH select arms: a producer aborted by cancellation while
// blocked on a full channel previously returned without recording its
// wait, under-reporting backpressure exactly when it mattered most.
// countBatch records the send on the exchange node's batch counter —
// off for the merge exchanges, whose consumer-side ObsIter counts
// delivered batches on the same node (counting both would double).
// Reports false when the exchange was canceled.
func (e *executor) send(ctx context.Context, ch chan<- batch, b batch, st *engine.OpStats, countBatch bool) bool {
	if st == nil {
		select {
		case <-ctx.Done():
			return false
		case ch <- b:
			return true
		}
	}
	t0 := time.Now()
	sent := false
	select {
	case <-ctx.Done():
	case ch <- b:
		sent = true
	}
	st.AddWait(time.Since(t0).Nanoseconds())
	if sent && countBatch {
		st.AddBatch()
	}
	return sent
}

// drainInto pumps it into ch in morsel-sized batches until exhaustion or
// cancellation of the exchange context. With the batch hop enabled and a
// batch-capable input, the operator chain fills each transport batch
// directly through NextBatch — one virtual call per batch instead of one
// per row — and the slice is handed over wholesale (a fresh slice per
// send, because the consumer adopts it). With st non-nil the producer's
// blocked time is recorded (and each batch sent, when countBatch says
// the consumer side is not already counting them).
// A drain that ends because its input FAILED (rather than ended
// naturally) reports the input's terminal error to the executor's
// central error slot, per the error-carrying iterator protocol:
// exchange consumers only ever observe a clean end-of-stream, so the
// producer side is where a truncation must be converted into a query
// error. No trailing partial batch is sent on a failed drain — the rows
// of a failed stream are not results.
func (e *executor) drainInto(ctx context.Context, it engine.RowIter, ch chan<- batch, st *engine.OpStats, countBatch bool) {
	if bi, ok := it.(engine.BatchIter); ok && e.batchSize > 0 {
		for {
			// One cancellation probe per batch: NextBatch can spin for a
			// while on selective operators, and the send below only
			// observes cancellation when it actually blocks.
			if ctx.Err() != nil {
				return
			}
			rb := engine.RowBatch{Rows: make([]tuple.Tuple, 0, e.batchSize)}
			if !bi.NextBatch(&rb) {
				e.fail(engine.IterErr(it))
				return
			}
			if !e.send(ctx, ch, batch(rb.Rows), st, countBatch) {
				return
			}
		}
	}
	b := make(batch, 0, e.morsel)
	for {
		row, ok := it.Next()
		if !ok {
			if err := engine.IterErr(it); err != nil {
				e.fail(err)
				return
			}
		}
		if ok {
			//lint:ignore rowretain batching for transport only; rows are forwarded downstream unmodified
			b = append(b, row)
		}
		if (!ok || len(b) == e.morsel) && len(b) > 0 {
			if !e.send(ctx, ch, b, st, countBatch) {
				return
			}
			b = make(batch, 0, e.morsel)
		}
		if !ok {
			return
		}
	}
}

// hashPartition converts a stream — given as its physical sources, one
// per already-running fragment — into W worker-side iterators by
// hashing the key columns: every row of one key group lands in the
// same partition, which is what lets each worker run an independent
// sweep (coalesce / split-aggregate / difference) over its partition
// with no cross-worker coordination. One distributor goroutine per
// source hashes into the shared bounded per-partition channels, so
// partitioned inputs are redistributed without first being serialized
// through a merge exchange; cancellation of the execution context
// unblocks both sides.
func (e *executor) hashPartition(srcs []engine.RowIter, keyIdx []int, parent *engine.OpStats) []engine.RowIter {
	st := parent.Child("Exchange:partition", fmt.Sprintf("fanout=%d", e.workers))
	st.InitParts(e.workers)
	schema := srcs[0].Schema()
	x := e.newExchange(e.workers)
	chans := make([]chan batch, e.workers)
	for i := range chans {
		chans[i] = make(chan batch, len(srcs)+1)
	}
	var producers sync.WaitGroup
	for _, src := range srcs {
		src := src
		producers.Add(1)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			defer e.recoverPanic("exchange:partition producer")
			defer producers.Done()
			defer src.Close()
			bufs := make([]batch, e.workers)
			for i := range bufs {
				bufs[i] = make(batch, 0, e.morsel)
			}
			flush := func(i int) bool {
				if len(bufs[i]) == 0 {
					return true
				}
				if !e.send(x.ctx, chans[i], bufs[i], st, true) {
					return false
				}
				st.AddPartRows(i, len(bufs[i]))
				bufs[i] = make(batch, 0, e.morsel)
				return true
			}
			var scratch []byte
			next := e.pullFunc(src)
			for {
				row, ok := next()
				if !ok {
					// A failed source means the partitions are missing rows:
					// report it centrally and skip the trailing flush (the
					// buffered rows of a failed stream are not results).
					if err := engine.IterErr(src); err != nil {
						e.fail(err)
						return
					}
					break
				}
				scratch = row.AppendKey(scratch[:0], keyIdx)
				i := int(keyHash(scratch) % uint32(e.workers))
				//lint:ignore rowretain partition buffering for transport; rows are forwarded downstream unmodified
				bufs[i] = append(bufs[i], row)
				if len(bufs[i]) == e.morsel && !flush(i) {
					return
				}
			}
			for i := range bufs {
				if !flush(i) {
					return
				}
			}
		}()
	}
	e.wg.Add(1)
	//lint:leakcheck bounded by construction: waits only on partition producers whose flush selects on ctx.Done()
	go func() {
		defer e.wg.Done()
		defer e.recoverPanic("exchange:partition closer")
		producers.Wait()
		for _, ch := range chans {
			close(ch)
		}
	}()
	parts := make([]engine.RowIter, e.workers)
	for i := range parts {
		parts[i] = e.inject(fmt.Sprintf("exchange:partition:%d", i),
			&chanIter{x: x, schema: schema, cur: chanCursor{ch: chans[i]}})
	}
	return parts
}

// keyHash is FNV-1a over a canonical tuple key encoding (produced
// allocation-free by tuple.AppendKey into a reusable scratch buffer).
func keyHash(key []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range key {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// chanCursor is the per-row and per-batch reader of one bounded batch
// channel, observing cancellation through ctx.
type chanCursor struct {
	ch  <-chan batch
	cur batch
	i   int
}

func (c *chanCursor) next(ctx context.Context) (tuple.Tuple, bool) {
	for {
		if c.i < len(c.cur) {
			row := c.cur[c.i]
			c.i++
			return row, true
		}
		select {
		case <-ctx.Done():
			return nil, false
		case b, ok := <-c.ch:
			if !ok {
				return nil, false
			}
			c.cur, c.i = b, 0
		}
	}
}

// nextBatch adopts one transport batch wholesale into out (zero-copy —
// transport batches are freshly allocated per send); a partial batch
// left behind by per-row pulls is copied out first.
func (c *chanCursor) nextBatch(ctx context.Context, out *engine.RowBatch) bool {
	out.Reset()
	if c.i < len(c.cur) {
		out.Rows = append(out.Rows, c.cur[c.i:]...)
		c.cur, c.i = nil, 0
		return true
	}
	select {
	case <-ctx.Done():
		return false
	case b, ok := <-c.ch:
		if !ok {
			return false
		}
		out.Rows = b
		return true
	}
}

// repartition converts a sequential stream into W worker-side iterators
// by round-robin batch distribution: a single distributor goroutine reads
// the source and every worker pulls from the shared bounded channel —
// morsel-driven scheduling for sources that are not indexable tables
// (e.g. the output of a blocking operator feeding a join probe side).
func (e *executor) repartition(src engine.RowIter, parent *engine.OpStats) []engine.RowIter {
	st := parent.Child("Exchange:repartition", fmt.Sprintf("fanout=%d", e.workers))
	schema := src.Schema()
	x := e.newExchange(e.workers)
	ch := make(chan batch, e.workers)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		defer e.recoverPanic("exchange:repartition producer")
		defer close(ch)
		defer src.Close()
		e.drainInto(x.ctx, src, ch, st, true)
	}()
	parts := make([]engine.RowIter, e.workers)
	for i := range parts {
		parts[i] = e.inject(fmt.Sprintf("exchange:repartition:%d", i),
			&chanIter{x: x, schema: schema, cur: chanCursor{ch: ch}})
	}
	return parts
}
