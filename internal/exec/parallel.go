// Morsel-driven parallel execution (§7.1 made real): a shared worker pool and
// the morsel loop (forMorsels) every batch operator runs on, plus the
// parallel forms of the row operators — nested-loop and index-nested-loop
// probes and *executed* Exchange operators (goroutine fan-out over
// hash/round-robin partitions and fan-in that concatenates, or merges
// order-preservingly when a MergeOrdering is present).
//
// Every worker gets a private Ctx (counters, simulated buffer) merged into the
// parent at the barrier, so the engine is race-free under `go test -race`.
// Parallel loops emit the same rows in the same order as a serial run:
// per-morsel outputs concatenate in morsel order, and merging exchanges
// reproduce the stable serial order exactly.
package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// MorselSize is the number of rows a worker claims at a time. Small enough to
// balance skewed pipelines, large enough to amortize scheduling.
const MorselSize = 1024

// minParallelRows is the input size below which operators stay serial: the
// fan-out overhead would exceed the work.
const minParallelRows = 2 * MorselSize

// Pool is a fixed-size worker pool shared by all parallel operators of one or
// more executions. Workers run until Close. All goroutines of the parallel
// engine live here: operators never spawn bare goroutines (enforced by
// TestNoBareGoroutinesInExec), which is what makes the zero-leak guarantee
// checkable — after Close returns, every pool goroutine has exited.
type Pool struct {
	size int
	jobs chan func()
	wg   sync.WaitGroup

	// mu serializes submits against Close so a submit can never hit a closed
	// channel: senders hold mu across the channel send, and Close flips
	// closed before closing the channel. Late submitters get ErrPoolClosed
	// instead of a panic.
	mu     sync.Mutex
	closed bool
}

// ErrPoolClosed is returned by submissions that arrive after Close. Engines
// that share one pool across queries surface it to callers racing shutdown;
// match with errors.Is.
var ErrPoolClosed = errors.New("exec: worker pool closed")

// NewPool starts a pool with the given number of workers (<= 0 means
// GOMAXPROCS).
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{size: size, jobs: make(chan func())}
	p.wg.Add(size)
	for i := 0; i < size; i++ {
		go func() {
			defer p.wg.Done()
			for f := range p.jobs {
				f()
			}
		}()
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return p.size }

// Close releases the pool's workers and blocks until they have all exited,
// so callers can assert the goroutine count is back to baseline. In-flight
// submissions (already holding the submit lock) drain to a worker first;
// submissions arriving after Close get ErrPoolClosed. Safe to call more
// than once.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// submit hands f to a worker, blocking until one accepts it. Holding mu
// across the send cannot deadlock Close: workers keep draining jobs until
// the channel closes, and the channel only closes under this same lock.
func (p *Pool) submit(f func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	p.jobs <- f
	return nil
}

// barrier is the shared abort state of one runWorkers call: the first
// failing worker raises it, and the others stop claiming work at their next
// morsel boundary instead of finishing the pipeline nobody will read.
type barrier struct{ failed atomic.Bool }

func (b *barrier) abort()        { b.failed.Store(true) }
func (b *barrier) aborted() bool { return b != nil && b.failed.Load() }

// errBarrierAborted is returned by workers that stopped early because a
// sibling already failed. It never wins error selection and never escapes
// runWorkers.
var errBarrierAborted = errors.New("exec: barrier aborted by sibling failure")

// seqError tags a worker error with its deterministic sequence position —
// the morsel index for morsel-driven loops — so error selection at the
// barrier does not depend on goroutine scheduling.
type seqError struct {
	seq int
	err error
}

func (e *seqError) Error() string { return e.err.Error() }
func (e *seqError) Unwrap() error { return e.err }

// ensurePool returns the shared pool, creating (and owning) one on demand.
func (c *Ctx) ensurePool() *Pool {
	if c.Pool == nil {
		c.Pool = NewPool(c.Parallelism)
		c.ownPool = true
	}
	return c.Pool
}

// runWorkers runs fn(w, workerCtx) for w in [0, n) on the pool and blocks
// until all return — a pipeline barrier. Each worker gets a private child Ctx;
// the children's counters are merged into c at the barrier (on success AND on
// failure, so canceled queries still report their partial work). Worker
// panics are converted to errors so a failing morsel cannot kill the process.
//
// Error discipline: the first failure (by deterministic sequence position —
// morsel index when fn tags errors with seqError, worker index otherwise)
// wins; later failures are dropped, and workers that observed the barrier's
// abort flag and stopped early never contribute an error at all. The same
// error therefore surfaces on every run regardless of goroutine scheduling.
func (c *Ctx) runWorkers(n int, fn func(w int, wc *Ctx) error) error {
	if n < 1 {
		n = 1
	}
	pool := c.ensurePool()
	children := make([]*Ctx, n)
	errs := make([]error, n)
	bar := &barrier{}
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		w := w
		wc := c.child()
		wc.bar = bar
		wc.worker = w
		children[w] = wc
		if err := pool.submit(func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("exec: worker %d panic: %v", w, r)
					bar.abort()
				}
			}()
			if err := fn(w, wc); err != nil {
				errs[w] = err
				bar.abort()
			}
		}); err != nil {
			// Pool closed under us (engine shutdown racing a query): the
			// worker never ran, so balance the barrier ourselves and let the
			// typed error surface. Earlier workers that did start see the
			// abort flag at their next morsel boundary.
			errs[w] = err
			bar.abort()
			wg.Done()
		}
	}
	wg.Wait()
	for w, wc := range children {
		c.Counters.add(wc.Counters)
		// Per-worker row counts merge into the analyzed operator at the
		// barrier — same discipline as the counters, so analyze mode stays
		// race-clean. Zero-row phases (e.g. hash builds) are not recorded.
		if c.curNode != nil && wc.Counters.RowsProcessed > 0 {
			c.curNode.AddWorkerRows(w, wc.Counters.RowsProcessed)
		}
		// Workers have no curNode, so their segment-file bytes and block
		// decodes only reached their private counters; credit the analyzed
		// node here.
		if c.curNode != nil && wc.Counters.BytesRead > 0 {
			c.curNode.BytesRead += wc.Counters.BytesRead
		}
		if c.curNode != nil {
			c.curNode.BlocksDict += wc.Counters.BlocksDict
			c.curNode.BlocksRLE += wc.Counters.BlocksRLE
			c.curNode.BlocksPlain += wc.Counters.BlocksPlain
		}
	}
	return firstError(errs)
}

// firstError picks the winning error from a barrier: the smallest sequence
// position (ties broken by worker index, which only matters for untagged
// errors), skipping abort sentinels.
func firstError(errs []error) error {
	best, bestSeq := error(nil), 0
	for w, err := range errs {
		if err == nil || errors.Is(err, errBarrierAborted) {
			continue
		}
		seq := w
		var se *seqError
		if errors.As(err, &se) {
			seq = se.seq
			err = se.err
		}
		if best == nil || seq < bestSeq {
			best, bestSeq = err, seq
		}
	}
	return best
}

func numMorsels(n int) int { return (n + MorselSize - 1) / MorselSize }

// fanOut reports whether a loop over n items runs on the worker pool: the
// query is parallel and the input is large enough to pay for the fan-out.
func (c *Ctx) fanOut(n int) bool { return c.Parallelism > 1 && n >= minParallelRows }

// forMorsels runs fn over n items in morsels of MorselSize. When the loop
// fans out (see fanOut), morsels are assigned to pool workers by static
// striding (worker w takes morsels w, w+W, ...), which keeps every run
// deterministic; otherwise eachMorsel runs them inline. fn receives the
// morsel index and its [lo, hi) bounds.
//
// Each morsel boundary is a governor checkpoint: workers stop when the query
// is canceled or a sibling worker has already failed, so errors and
// cancellations surface within about one morsel of work. Errors are tagged
// with their morsel index, making "first error wins" mean first in morsel
// order, not first in wall-clock order — the error an inline run returns.
func (c *Ctx) forMorsels(n int, fn func(wc *Ctx, m, lo, hi int) error) error {
	if !c.fanOut(n) {
		return c.eachMorsel(n, fn)
	}
	nm := numMorsels(n)
	if c.curNode != nil {
		c.curNode.Batches += int64(nm)
	}
	w := min(c.workers(), nm)
	return c.runWorkers(w, func(wk int, wc *Ctx) error {
		for m := wk; m < nm; m += w {
			if wc.bar.aborted() {
				return errBarrierAborted
			}
			if err := wc.canceled(); err != nil {
				return &seqError{seq: m, err: err}
			}
			lo := m * MorselSize
			if err := fn(wc, m, lo, min(lo+MorselSize, n)); err != nil {
				return &seqError{seq: m, err: err}
			}
		}
		return nil
	})
}

// eachMorsel is forMorsels' inline loop: the morsels run in order on c
// itself, with the same cancellation checkpoint per morsel.
func (c *Ctx) eachMorsel(n int, fn func(wc *Ctx, m, lo, hi int) error) error {
	nm := numMorsels(n)
	if c.curNode != nil {
		c.curNode.Batches += int64(nm)
	}
	for m := 0; m < nm; m++ {
		if err := c.canceled(); err != nil {
			return err
		}
		lo := m * MorselSize
		if err := fn(c, m, lo, min(lo+MorselSize, n)); err != nil {
			return err
		}
	}
	return nil
}

// concatMorsels flattens per-morsel outputs in morsel order, so parallel
// operators keep the serial row order.
func concatMorsels[T any](outs [][]T) []T {
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	if total == 0 {
		return nil
	}
	flat := make([]T, 0, total)
	for _, o := range outs {
		flat = append(flat, o...)
	}
	return flat
}

// morselOut collects a forMorsels loop's output in morsel order: appended
// straight to one slice when the loop runs inline, kept per morsel and
// concatenated when it fans out. n must be the loop's item count.
type morselOut[T any] struct {
	all []T
	per [][]T
}

func newMorselOut[T any](c *Ctx, n int) *morselOut[T] {
	o := &morselOut[T]{}
	if c.fanOut(n) {
		o.per = make([][]T, numMorsels(n))
	}
	return o
}

// reserve presizes the inline output for n items; a fanned-out loop's
// per-morsel slices grow as they fill.
func (o *morselOut[T]) reserve(n int) {
	if o.per == nil {
		o.all = make([]T, 0, n)
	}
}

// dst returns the slice morsel m appends to.
func (o *morselOut[T]) dst(m int) *[]T {
	if o.per == nil {
		return &o.all
	}
	return &o.per[m]
}

// flat returns the collected output in morsel order.
func (o *morselOut[T]) flat() []T {
	if o.per == nil {
		return o.all
	}
	return concatMorsels(o.per)
}

// --- parallel nested-loop and index-nested-loop probes ---

// runNLJoinParallel splits the outer input into morsels probed against the
// fully materialized inner. Per-morsel concatenation keeps the serial order.
func (c *Ctx) runNLJoinParallel(t *physical.NLJoin, left, right *Result) ([]datum.Row, error) {
	combined := append(append([]logical.ColumnID{}, left.Cols...), right.Cols...)
	rightWidth := len(right.Cols)
	nm := numMorsels(len(left.Rows))
	outs := make([][]datum.Row, nm)
	needMatched := t.Kind == logical.FullOuterJoin
	var matchedMu sync.Mutex
	var workerMatched [][]bool
	err := c.forMorsels(len(left.Rows), func(wc *Ctx, m, lo, hi int) error {
		e := newEnv(combined, nil)
		var out []datum.Row
		var matchedR []bool
		if needMatched {
			matchedR = make([]bool, len(right.Rows))
		}
		for _, lr := range left.Rows[lo:hi] {
			matched := false
			for ri, rr := range right.Rows {
				wc.Counters.RowsProcessed++
				e.row = lr.Concat(rr)
				ok, err := wc.filterRow(t.On, e)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				matched = true
				if needMatched {
					matchedR[ri] = true
				}
				switch t.Kind {
				case logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin:
					out = append(out, lr.Concat(rr))
				case logical.SemiJoin:
					out = append(out, lr)
				}
				if t.Kind == logical.SemiJoin || t.Kind == logical.AntiJoin {
					break
				}
			}
			switch t.Kind {
			case logical.LeftOuterJoin, logical.FullOuterJoin:
				if !matched {
					out = append(out, lr.Concat(nullRow(rightWidth)))
				}
			case logical.AntiJoin:
				if !matched {
					out = append(out, lr)
				}
			}
		}
		outs[m] = out
		if matchedR != nil {
			matchedMu.Lock()
			workerMatched = append(workerMatched, matchedR)
			matchedMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := concatMorsels(outs)
	if needMatched {
		rightMatched := make([]bool, len(right.Rows))
		for _, wm := range workerMatched {
			for i, b := range wm {
				if b {
					rightMatched[i] = true
				}
			}
		}
		leftWidth := len(left.Cols)
		for ri, rr := range right.Rows {
			if !rightMatched[ri] {
				out = append(out, nullRow(leftWidth).Concat(rr))
			}
		}
	}
	return out, nil
}

// runINLJoinParallel probes the inner table's index with morsels of outer
// rows — the parallel index scan of §7.1 (the index is shared storage, so
// probes stay local to each worker).
func (c *Ctx) runINLJoinParallel(t *physical.INLJoin, left []datum.Row, tab *storage.Table, ix *storage.IndexData, keyOffsets []int) ([]datum.Row, error) {
	leftLayout := t.Left.Columns()
	combined := append(append([]logical.ColumnID{}, leftLayout...), t.Cols...)
	innerWidth := len(t.Cols)
	outs := make([][]datum.Row, numMorsels(len(left)))
	err := c.forMorsels(len(left), func(wc *Ctx, m, lo, hi int) error {
		e := newEnv(combined, nil)
		var out []datum.Row
		for _, lr := range left[lo:hi] {
			key := make(datum.Row, len(keyOffsets))
			nullKey := false
			for i, off := range keyOffsets {
				key[i] = lr[off]
				if key[i].IsNull() {
					nullKey = true
				}
			}
			matched := false
			if !nullKey {
				wc.Counters.IndexSeeks++
				ids := ix.SeekEq(key)
				for _, id := range ids {
					wc.touchRow(tab, id)
				}
				for _, id := range ids {
					wc.Counters.RowsProcessed++
					ir, err := wc.rowAt(tab, id)
					if err != nil {
						return err
					}
					rr := projectRow(ir, t.ColOrds)
					e.row = lr.Concat(rr)
					ok, err := wc.filterRow(t.ExtraOn, e)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					matched = true
					switch t.Kind {
					case logical.InnerJoin, logical.LeftOuterJoin:
						out = append(out, lr.Concat(rr))
					case logical.SemiJoin:
						out = append(out, lr)
					}
					if t.Kind == logical.SemiJoin || t.Kind == logical.AntiJoin {
						break
					}
				}
			}
			switch t.Kind {
			case logical.LeftOuterJoin:
				if !matched {
					out = append(out, lr.Concat(nullRow(innerWidth)))
				}
			case logical.AntiJoin:
				if !matched {
					out = append(out, lr)
				}
			}
		}
		outs[m] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concatMorsels(outs), nil
}

// --- order-preserving merge ---

// mergeRuns k-way merges runs of indices, each sorted under cmp, with a
// linear tournament over the run heads, stopping after limit indices when
// limit >= 0. Under a (key, index) order it is an order-preserving fan-in.
func mergeRuns[T int | int32](runs [][]T, limit int, cmp func(a, b T) int) []T {
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	if limit >= 0 {
		total = min(total, limit)
	}
	out := make([]T, 0, total)
	heads := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for r, run := range runs {
			if heads[r] < len(run) && (best < 0 || cmp(run[heads[r]], runs[best][heads[best]]) < 0) {
				best = r
			}
		}
		out = append(out, runs[best][heads[best]])
		heads[best]++
	}
	return out
}

// --- executed Exchange ---

// runExchange executes an Exchange operator for real: goroutine fan-out that
// hash- or round-robin-partitions the input stream Degree ways, and a fan-in
// that concatenates the partitions — or, when MergeOrdering is present,
// merges them order-preservingly so the input's sort order survives the
// repartitioning. On the serial path the exchange degenerates to a pass-through
// that only counts exchanged rows, as before.
func (c *Ctx) runExchange(t *physical.Exchange) ([]datum.Row, error) {
	in, err := c.runPlan(t.Input)
	if err != nil {
		return nil, err
	}
	c.Counters.ExchangedRows += int64(len(in))
	// The exchange buffer is a materialization point: it must complete
	// regardless of the budget, so its footprint is observed, not reserved.
	c.Mem.NotePeak(rowSetBytes(in))
	if !c.fanOut(len(in)) {
		return in, nil
	}
	degree := t.Degree
	if degree < 2 {
		degree = c.workers()
	}
	layout := t.Input.Columns()

	// Fan-out: partition indices morsel-wise (stable within each morsel).
	nm := numMorsels(len(in))
	parts := make([][][]int, nm)
	if len(t.PartitionCols) > 0 {
		pOff, err := offsetsOf(layout, t.PartitionCols)
		if err != nil {
			return nil, err
		}
		err = c.forMorsels(len(in), func(wc *Ctx, m, lo, hi int) error {
			loc := make([][]int, degree)
			for i := lo; i < hi; i++ {
				wc.Counters.HashOps++
				p := int(in[i].Hash(pOff) % uint64(degree))
				loc[p] = append(loc[p], i)
			}
			parts[m] = loc
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		// Round-robin by morsel.
		err = c.forMorsels(len(in), func(wc *Ctx, m, lo, hi int) error {
			loc := make([][]int, degree)
			ids := make([]int, hi-lo)
			for i := range ids {
				ids[i] = lo + i
			}
			loc[m%degree] = ids
			parts[m] = loc
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// Fan-in: one consumer per partition gathers its stream in morsel order,
	// which preserves the producer's row order within each partition.
	streams := make([][]int, degree)
	nCons := min(c.workers(), degree)
	err = c.runWorkers(nCons, func(w int, wc *Ctx) error {
		for p := w; p < degree; p += nCons {
			var ids []int
			for m := 0; m < nm; m++ {
				ids = append(ids, parts[m][p]...)
			}
			streams[p] = ids
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c.curNode != nil {
		// Per-partition row counts are the exchange's skew signal: a hash
		// partitioning that lands most rows in one stream shows up here.
		for p := range streams {
			c.curNode.AddWorkerRows(p, int64(len(streams[p])))
		}
		c.curNode.NoteMem(int64(len(in)))
	}

	if len(t.MergeOrdering) > 0 {
		// Order-preserving merge: each partition is a subsequence of the
		// (sorted) input, so merging by (key, original index) reproduces the
		// input order exactly.
		spec := make([]datum.SortSpec, len(t.MergeOrdering))
		for i, o := range t.MergeOrdering {
			off := (&Result{Cols: layout}).ColIndex(o.Col)
			if off < 0 {
				return nil, fmt.Errorf("exec: exchange merge column @%d not in layout", int(o.Col))
			}
			spec[i] = datum.SortSpec{Col: off, Desc: o.Desc}
		}
		ids := mergeRuns(streams, -1, func(a, b int) int {
			c.Counters.Comparisons++
			if r := datum.CompareRows(in[a], in[b], spec); r != 0 {
				return r
			}
			return a - b
		})
		out := make([]datum.Row, len(ids))
		for k, i := range ids {
			out[k] = in[i]
		}
		return out, nil
	}
	out := make([]datum.Row, 0, len(in))
	for _, ids := range streams {
		for _, i := range ids {
			out = append(out, in[i])
		}
	}
	return out, nil
}
