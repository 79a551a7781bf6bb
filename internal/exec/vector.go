// The batch operators — table and index scans, filter, projection, hash join
// and hash aggregation — are the engine's only implementation of these six
// operators. They produce and consume columnar batches (batch.go): predicates,
// keys and aggregates with a typed kernel (kernels.go) run over column
// vectors, and everything else (IN lists, LIKE, OR, arithmetic, CASE,
// subqueries, UDFs) is evaluated row by row over the live selection with
// logical.Eval. Every morsel loop goes through forMorsels, which fans out on
// the worker pool when the query is parallel and the input is large enough
// and runs inline otherwise, so each operator writes its loop once. Output is
// identical at every degree: morsel outputs concatenate in morsel order, and
// hash aggregation partitions groups so that each group sees its rows in
// input order. The operators keep the engine's observable contract: the same
// counters (RowsProcessed, HashOps, IndexSeeks), page touches, step("scan")
// fault/cancel cadence per MorselSize rows, and memory reservations with
// their spill fallbacks.
package exec

import (
	"fmt"
	"sort"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// execBatch runs p when it is one of the batch operators; ok=false means p
// is a row operator.
func (c *Ctx) execBatch(p physical.Plan) (b *Batch, ok bool, err error) {
	switch t := p.(type) {
	case *physical.TableScan:
		b, err = c.vecTableScan(t)
	case *physical.IndexScan:
		b, err = c.vecIndexScan(t)
	case *physical.Filter:
		b, err = c.vecFilter(t)
	case *physical.Project:
		b, err = c.vecProject(t)
	case *physical.HashJoin:
		b, err = c.vecHashJoin(t)
	case *physical.HashGroupBy:
		b, err = c.vecGroupBy(t)
	default:
		return nil, false, nil
	}
	if c.curNode != nil {
		c.curNode.Vectorized = true
	}
	return b, true, err
}

// inputBatch runs a batch operator's child: natively when the child is a
// batch operator, through the row adapter otherwise.
func (c *Ctx) inputBatch(p physical.Plan) (*Batch, error) {
	var b *Batch
	err := c.metered(p, func() (int, error) {
		var ok bool
		var err error
		if b, ok, err = c.execBatch(p); !ok {
			var rows []datum.Row
			rows, err = c.execPlan(p)
			b = batchFromRows(p.Columns(), rows)
		}
		if err != nil {
			return 0, err
		}
		return b.NumRows(), nil
	})
	return b, err
}

// identSel returns the identity selection vector [0, n).
func identSel(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// liveSel returns the batch's live row indices, materializing the identity
// when no selection vector is present.
func (b *Batch) liveSel() []int32 {
	if b.Sel != nil {
		return b.Sel
	}
	return identSel(b.n)
}

// vecNullAt reports whether any of the key columns is NULL at row i.
func vecNullAt(vecs []*datum.Vec, offs []int, i int) bool {
	for _, o := range offs {
		if vecs[o].Null(i) {
			return true
		}
	}
	return false
}

// colKinds resolves the static column kinds of a scan layout from metadata.
func (c *Ctx) colKinds(cols []logical.ColumnID) []datum.Kind {
	kinds := make([]datum.Kind, len(cols))
	for i, id := range cols {
		kinds[i] = c.Meta.Column(id).Kind
	}
	return kinds
}

// --- row-at-a-time evaluation over batches ---

// rowEval evaluates scalars that have no kernel one row at a time over batch
// vectors, reusing a single scratch row. Only the columns the expressions
// reference are loaded. Vectors at offsets >= split belong to a second batch
// (the build side of a join) and are read at the second row index.
type rowEval struct {
	vecs  []*datum.Vec
	load  []int
	split int
	e     *env
	ectx  *logical.EvalContext
}

func (c *Ctx) newRowEval(layout []logical.ColumnID, vecs []*datum.Vec, split int, exprs []logical.Scalar) *rowEval {
	var refs logical.ColSet
	for _, x := range exprs {
		refs = refs.Union(logical.ScalarCols(x))
	}
	e := newEnv(layout, nil)
	e.row = nullRow(len(layout))
	r := &rowEval{vecs: vecs, split: split, e: e, ectx: c.evalCtx(e)}
	for o, id := range layout {
		if refs.Contains(id) {
			r.load = append(r.load, o)
		}
	}
	return r
}

// at loads row i (row j for vectors past split) into the scratch row.
func (r *rowEval) at(i, j int32) {
	for _, o := range r.load {
		k := i
		if o >= r.split {
			k = j
		}
		r.e.row[o] = r.vecs[o].D(int(k))
	}
}

// pass reports whether every predicate is TRUE on the loaded row.
func (r *rowEval) pass(preds []logical.Scalar) (bool, error) {
	for _, p := range preds {
		v, err := logical.Eval(p, r.ectx)
		if err != nil || !logical.TruthValue(v) {
			return false, err
		}
	}
	return true, nil
}

// filter appends to out the rows of sel on which every predicate is TRUE.
func (r *rowEval) filter(preds []logical.Scalar, sel, out []int32) ([]int32, error) {
	for _, i := range sel {
		r.at(i, i)
		ok, err := r.pass(preds)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, i)
		}
	}
	return out, nil
}

// filterRows keeps the rows of sel that pass preds, evaluated row by row.
func (c *Ctx) filterRows(in *Batch, sel []int32, preds []logical.Scalar) ([]int32, error) {
	out := newMorselOut[int32](c, len(sel))
	err := c.forMorsels(len(sel), func(wc *Ctx, m, lo, hi int) error {
		r := wc.newRowEval(in.Cols, in.Vecs, len(in.Vecs), preds)
		dst := out.dst(m)
		var err error
		*dst, err = r.filter(preds, sel[lo:hi], *dst)
		return err
	})
	return out.flat(), err
}

// evalVecs computes each expression for every live row of in. The vectors
// have in's physical length; rows outside the selection hold NULL.
func (c *Ctx) evalVecs(in *Batch, exprs []logical.Scalar) ([]*datum.Vec, error) {
	if len(exprs) == 0 {
		return nil, nil
	}
	sel := in.liveSel()
	vals := make([][]datum.D, len(exprs)) // by selection position
	for k := range vals {
		vals[k] = make([]datum.D, len(sel))
	}
	err := c.forMorsels(len(sel), func(wc *Ctx, _, lo, hi int) error {
		r := wc.newRowEval(in.Cols, in.Vecs, len(in.Vecs), exprs)
		for pos := lo; pos < hi; pos++ {
			r.at(sel[pos], sel[pos])
			for k, x := range exprs {
				v, err := logical.Eval(x, r.ectx)
				if err != nil {
					return err
				}
				vals[k][pos] = v
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vecs := make([]*datum.Vec, len(exprs))
	for k, ds := range vals {
		v := datum.NewVec(datum.KindNull, in.n)
		pos := 0
		for i := 0; i < in.n; i++ {
			if pos < len(sel) && int(sel[pos]) == i {
				v.AppendD(ds[pos])
				pos++
			} else {
				v.AppendNull()
			}
		}
		vecs[k] = v
	}
	return vecs, nil
}

// --- scans ---

// scanScratch is one worker's working state for a filtered scan morsel: a
// reusable vector per predicate-referenced column, ping-pong selection
// buffers, and the residual's row evaluator. Only the filter columns are
// filled before the predicates run — surviving rows are late-materialized
// afterwards.
type scanScratch struct {
	vecs       []*datum.Vec
	predCols   []int
	ident      []int32
	selA, selB []int32
	residual   *rowEval
}

func newScanScratch(kinds []datum.Kind, preds []compiledPred, residual []logical.Scalar, cols []logical.ColumnID) *scanScratch {
	s := &scanScratch{
		vecs:  make([]*datum.Vec, len(kinds)),
		ident: identSel(MorselSize),
		selA:  make([]int32, 0, MorselSize),
		selB:  make([]int32, 0, MorselSize),
	}
	note := func(col int) {
		if s.vecs[col] == nil {
			s.predCols = append(s.predCols, col)
			s.vecs[col] = datum.NewVec(kinds[col], MorselSize)
		}
	}
	for _, p := range preds {
		switch p.form {
		case predNever:
		case predColCol:
			note(p.col)
			note(p.col2)
		default:
			note(p.col)
		}
	}
	for _, x := range residual {
		refs := logical.ScalarCols(x)
		for o, id := range cols {
			if refs.Contains(id) {
				note(o)
			}
		}
	}
	return s
}

// filterChunk runs the compiled predicates over rows [0, chunkLen) of the
// scratch vectors and returns the surviving local indices. The returned slice
// aliases scratch buffers — consume it before the next chunk.
func (s *scanScratch) filterChunk(preds []compiledPred, chunkLen int) []int32 {
	cur := s.ident[:chunkLen]
	useA := true
	b := &Batch{Vecs: s.vecs, n: chunkLen}
	for _, p := range preds {
		var dst []int32
		if useA {
			dst = s.selA[:0]
		} else {
			dst = s.selB[:0]
		}
		cur = applyPred(b, p, cur, dst)
		if useA {
			s.selA = cur
		} else {
			s.selB = cur
		}
		useA = !useA
		if len(cur) == 0 {
			break
		}
	}
	return cur
}

func (c *Ctx) vecTableScan(t *physical.TableScan) (*Batch, error) {
	tab, ok := c.Store.Table(t.Table.Name)
	if !ok {
		return nil, fmt.Errorf("exec: no storage for table %s", t.Table.Name)
	}
	pruner := c.buildPruner(tab, t.Filter, t.Cols, t.ColOrds)
	if pruner != nil {
		c.notePruner(tab, pruner)
	} else {
		c.touchScan(tab)
	}
	return c.scanBatch(tab, t.Cols, t.ColOrds, t.Filter, nil, tab.RowCount(), pruner)
}

func (c *Ctx) vecIndexScan(t *physical.IndexScan) (*Batch, error) {
	tab, ok := c.Store.Table(t.Table.Name)
	if !ok {
		return nil, fmt.Errorf("exec: no storage for table %s", t.Table.Name)
	}
	ix, err := tab.Index(t.Index.Name)
	if err != nil {
		return nil, err
	}
	c.Counters.IndexSeeks++
	var ids []int
	switch {
	case len(t.EqKey) > 0 && (!t.Lo.IsNull() || !t.Hi.IsNull()):
		// Equality prefix + range on the next column: fetch eq matches and
		// post-filter on the range column.
		ids = ix.SeekEq(t.EqKey)
		rangeOrd := t.Index.Cols[len(t.EqKey)]
		ids, err = c.filterIDsByRange(tab, ids, rangeOrd, t.Lo, t.LoIncl, t.Hi, t.HiIncl)
		if err != nil {
			return nil, err
		}
	case len(t.EqKey) > 0:
		ids = ix.SeekEq(t.EqKey)
	default:
		ids = ix.SeekRange(t.Lo, t.LoIncl, t.Hi, t.HiIncl)
	}
	for _, id := range ids {
		c.touchRow(tab, id)
	}
	return c.scanBatch(tab, t.Cols, t.ColOrds, t.Filter, ids, len(ids), nil)
}

func (c *Ctx) filterIDsByRange(tab *storage.Table, ids []int, ord int, lo datum.D, loIncl bool, hi datum.D, hiIncl bool) ([]int, error) {
	var out []int
	for _, id := range ids {
		v, err := c.colValue(tab, id, ord)
		if err != nil {
			return nil, err
		}
		if v.IsNull() {
			continue
		}
		if !lo.IsNull() {
			cmp := datum.Compare(v, lo)
			if cmp < 0 || (cmp == 0 && !loIncl) {
				continue
			}
		}
		if !hi.IsNull() {
			cmp := datum.Compare(v, hi)
			if cmp > 0 || (cmp == 0 && !hiIncl) {
				continue
			}
		}
		out = append(out, id)
	}
	return out, nil
}

// scanBatch is the morsel loop shared by both scans. The n candidate rows are
// rows [0, n) of the table when ids is nil (table scan) and the row ids in
// ids otherwise (index scan). Filtered scans are late-materialized: each
// morsel fills only the predicate columns, refines the selection with the
// kernels and then the row-evaluated residual, and the survivors' output
// columns are gathered in one pass at the end. Over a disk-backed table the
// pruner classifies each morsel first: eliminated morsels skip the fill and
// the predicates (no I/O at all), full-match morsels keep every row without
// evaluating them.
func (c *Ctx) scanBatch(tab *storage.Table, cols []logical.ColumnID, ords []int, filter []logical.Scalar, ids []int, n int, pruner *scanPruner) (*Batch, error) {
	preds, residual := compilePreds(filter, cols)
	kinds := c.colKinds(cols)
	idAt := func(k int) int {
		if ids == nil {
			return k
		}
		return ids[k]
	}
	scratch := make([]*scanScratch, c.workers())
	keep := newMorselOut[int](c, n)
	err := c.forMorsels(n, func(wc *Ctx, m, lo, hi int) error {
		disp := storage.ZoneSome
		if pruner != nil {
			disp = pruner.dispRange(lo, hi)
		}
		if disp == storage.ZoneNone {
			return nil
		}
		if err := wc.step("scan"); err != nil {
			return err
		}
		wc.Counters.RowsProcessed += int64(hi - lo)
		if len(filter) == 0 {
			return nil // every row survives; the columns are filled whole below
		}
		dst := keep.dst(m)
		if disp == storage.ZoneAll && pruner.full {
			for k := lo; k < hi; k++ {
				*dst = append(*dst, idAt(k))
			}
			return nil
		}
		s := scratch[wc.worker]
		if s == nil {
			s = newScanScratch(kinds, preds, residual, cols)
			s.residual = wc.newRowEval(cols, s.vecs, len(s.vecs), residual)
			scratch[wc.worker] = s
		}
		for _, pc := range s.predCols {
			s.vecs[pc].Reset(kinds[pc])
			var err error
			if ids == nil {
				err = wc.fillRange(tab, ords[pc], lo, hi, s.vecs[pc])
			} else {
				err = wc.fillIDs(tab, ords[pc], ids[lo:hi], s.vecs[pc])
			}
			if err != nil {
				return err
			}
		}
		sel := s.filterChunk(preds, hi-lo)
		if len(residual) > 0 && len(sel) > 0 {
			var err error
			if sel, err = s.residual.filter(residual, sel, make([]int32, 0, len(sel))); err != nil {
				return err
			}
		}
		for _, i := range sel {
			*dst = append(*dst, idAt(lo+int(i)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows, survivors := n, ids
	if len(filter) > 0 {
		survivors = keep.flat()
		rows = len(survivors)
	}
	vecs := make([]*datum.Vec, len(cols))
	for ci := range cols {
		v := datum.NewVec(kinds[ci], rows)
		if ids == nil && len(filter) == 0 {
			err = c.fillRange(tab, ords[ci], 0, n, v)
		} else {
			err = c.fillIDs(tab, ords[ci], survivors, v)
		}
		if err != nil {
			return nil, err
		}
		vecs[ci] = v
	}
	return &Batch{Cols: cols, Vecs: vecs, n: rows}, nil
}

// --- filter and projection ---

func (c *Ctx) vecFilter(t *physical.Filter) (*Batch, error) {
	in, err := c.inputBatch(t.Input)
	if err != nil {
		return nil, err
	}
	preds, residual := compilePreds(t.Preds, in.Cols)
	c.Counters.RowsProcessed += int64(in.NumRows())
	if c.curNode != nil {
		c.curNode.Batches += int64(numMorsels(in.NumRows()))
	}
	sel := in.liveSel()
	for _, p := range preds {
		if len(sel) == 0 {
			break
		}
		sel = applyPred(in, p, sel, make([]int32, 0, len(sel)))
	}
	if len(residual) > 0 && len(sel) > 0 {
		if sel, err = c.filterRows(in, sel, residual); err != nil {
			return nil, err
		}
	}
	if sel == nil {
		sel = []int32{} // a nil Sel would mean every row is live
	}
	return &Batch{Cols: in.Cols, Vecs: in.Vecs, Sel: sel, n: in.n}, nil
}

func (c *Ctx) vecProject(t *physical.Project) (*Batch, error) {
	in, err := c.inputBatch(t.Input)
	if err != nil {
		return nil, err
	}
	c.Counters.RowsProcessed += int64(in.NumRows())
	// Column items share the input's vectors — a pointer copy, not a row
	// copy; computed items are evaluated row by row into new vectors.
	vecs := make([]*datum.Vec, len(t.Items))
	var exprs []logical.Scalar
	var at []int
	for i, it := range t.Items {
		if col, ok := it.Expr.(*logical.Col); ok {
			if off := in.colIndex(col.ID); off >= 0 {
				vecs[i] = in.Vecs[off]
				continue
			}
		}
		exprs = append(exprs, it.Expr)
		at = append(at, i)
	}
	computed, err := c.evalVecs(in, exprs)
	if err != nil {
		return nil, err
	}
	for k, i := range at {
		vecs[i] = computed[k]
	}
	return &Batch{Cols: t.Columns(), Vecs: vecs, Sel: in.Sel, n: in.n}, nil
}

// --- hash aggregation ---

// aggPart is one hash partition of an aggregation: hash-bucketed group ids
// over interned key rows and one accumulator per aggregate. Groups are
// charged to the memory account with the same per-entry model as the row
// group table. When several partitions must be merged, first (non-nil)
// records each group's first input row.
type aggPart struct {
	byHash  map[uint64][]int32
	keys    []datum.Row
	first   []int32
	accs    []vecAccumulator
	gids    []int32
	keyOff  []int
	mem     *MemAccount
	charged int64
}

func (g *aggPart) release() {
	if g.charged > 0 {
		g.mem.Shrink(g.charged)
		g.charged = 0
	}
}

// assign returns the group id of batch row i, creating (and charging) the
// group on first sight. Group ids are dense and in first-appearance order.
func (g *aggPart) assign(in *Batch, i int32, h uint64) (int32, error) {
	for _, gid := range g.byHash[h] {
		key := g.keys[gid]
		match := true
		for kc, ko := range g.keyOff {
			if !datum.Equal(in.Vecs[ko].D(int(i)), key[kc]) {
				match = false
				break
			}
		}
		if match {
			return gid, nil
		}
	}
	key := make(datum.Row, len(g.keyOff))
	for kc, ko := range g.keyOff {
		key[kc] = in.Vecs[ko].D(int(i))
	}
	n := int64(key.Size()) + entryOverhead + int64(48*len(g.accs))
	if err := g.mem.GrowFloor("hash aggregation", n, g.charged, 0); err != nil {
		return 0, err
	}
	g.charged += n
	gid := int32(len(g.keys))
	g.keys = append(g.keys, key)
	if g.first != nil {
		g.first = append(g.first, i)
	}
	g.byHash[h] = append(g.byHash[h], gid)
	return gid, nil
}

// add folds rows (batch row indices, ascending, with their key hashes; nil
// hashes for a scalar aggregation) into the partition.
func (g *aggPart) add(wc *Ctx, in *Batch, args []*datum.Vec, rows []int32, hs []uint64) error {
	wc.Counters.RowsProcessed += int64(len(rows))
	wc.Counters.HashOps += int64(len(rows))
	gids := g.gids[:len(rows)]
	for k, i := range rows {
		if hs == nil {
			gids[k] = 0
			continue
		}
		gid, err := g.assign(in, i, hs[k])
		if err != nil {
			return err
		}
		gids[k] = gid
	}
	for ai, acc := range g.accs {
		acc.ensure(len(g.keys))
		acc.accumulate(args[ai], rows, gids)
	}
	return nil
}

// partRows is one morsel's rows of one partition, with their key hashes.
type partRows struct {
	rows []int32
	hs   []uint64
}

// vecGroupBy aggregates serially into one partition, or — when the query
// fans out — hash-partitions the rows by group key per morsel and lets each
// worker aggregate its own partition. Every group then sees its rows in input
// order, so results are bit-identical at any degree (even MIN/MAX over NaN),
// and the groups are emitted in first-appearance order.
func (c *Ctx) vecGroupBy(t *physical.HashGroupBy) (*Batch, error) {
	layout := t.Input.Columns()
	keyOff, err := offsetsOf(layout, t.GroupCols)
	if err != nil {
		return nil, err
	}
	in, err := c.inputBatch(t.Input)
	if err != nil {
		return nil, err
	}
	sel := in.liveSel()
	args := make([]*datum.Vec, len(t.Aggs))
	var exprs []logical.Scalar
	var at []int
	for i, a := range t.Aggs {
		if a.Arg == nil {
			continue
		}
		if col, ok := a.Arg.(*logical.Col); ok {
			if off := in.colIndex(col.ID); off >= 0 {
				args[i] = in.Vecs[off]
				continue
			}
		}
		exprs = append(exprs, a.Arg)
		at = append(at, i)
	}
	computed, err := c.evalVecs(in, exprs)
	if err != nil {
		return nil, err
	}
	for k, i := range at {
		args[i] = computed[k]
	}

	nParts := 1
	if len(keyOff) > 0 && c.fanOut(len(sel)) {
		nParts = c.workers()
	}
	// Pre-size hash buckets from the optimizer's group-count estimate, capped
	// so a wild overestimate cannot make the presize itself the cost.
	hint := min(max(int(t.Rows), 0), 1<<20) / nParts
	parts := make([]*aggPart, nParts)
	for p := range parts {
		g := &aggPart{byHash: make(map[uint64][]int32, hint), keyOff: keyOff, mem: c.Mem, gids: make([]int32, MorselSize)}
		for i, a := range t.Aggs {
			g.accs = append(g.accs, newVecAccumulator(a, args[i]))
		}
		if len(keyOff) == 0 {
			// Like newGroupTable, the single global group of a scalar
			// aggregation exists before any accounting and is never charged.
			g.keys = []datum.Row{nil}
		}
		if nParts > 1 {
			g.first = make([]int32, 0, hint)
		}
		parts[p] = g
	}
	defer func() {
		for _, g := range parts {
			g.release()
		}
	}()
	var split [][]partRows
	if nParts > 1 {
		split = make([][]partRows, numMorsels(len(sel)))
	}
	// One partition accumulates in place, so its loop never fans out.
	loop := c.forMorsels
	if nParts == 1 {
		loop = c.eachMorsel
	}
	err = loop(len(sel), func(wc *Ctx, m, lo, hi int) error {
		chunk := sel[lo:hi]
		if len(keyOff) == 0 {
			return parts[0].add(wc, in, args, chunk, nil)
		}
		if nParts == 1 {
			hs := getHashBuf(len(chunk))
			defer putHashBuf(hs)
			hashKeys(in.Vecs, keyOff, chunk, hs)
			return parts[0].add(wc, in, args, chunk, hs)
		}
		hs := make([]uint64, len(chunk))
		hashKeys(in.Vecs, keyOff, chunk, hs)
		pr := make([]partRows, nParts)
		for k, i := range chunk {
			p := &pr[hs[k]%uint64(nParts)]
			p.rows = append(p.rows, i)
			p.hs = append(p.hs, hs[k])
		}
		split[m] = pr
		return nil
	})
	if err == nil && nParts > 1 {
		err = c.runWorkers(nParts, func(w int, wc *Ctx) error {
			for m := range split {
				if wc.bar.aborted() {
					return errBarrierAborted
				}
				if err := wc.canceled(); err != nil {
					return err
				}
				if err := parts[w].add(wc, in, args, split[m][w].rows, split[m][w].hs); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if isBudgetErr(err) {
		// The group table does not fit the budget: degrade to the
		// partition-and-spill aggregation, which emits the identical rows.
		for _, g := range parts {
			g.release()
		}
		out, err := c.spillGroupBy(in.ToRows(), layout, keyOff, t.GroupCols, t.Aggs)
		if err != nil {
			return nil, err
		}
		return batchFromRows(t.Columns(), out), nil
	}
	if err != nil {
		return nil, err
	}

	// Emit groups in first-appearance order: one partition's group ids
	// already are; several partitions merge by each group's first row.
	type groupRef struct{ first, part, gid int32 }
	var order []groupRef
	var charged int64
	groups := 0
	for p, g := range parts {
		charged += g.charged
		groups += len(g.keys)
		for gid, f := range g.first {
			order = append(order, groupRef{f, int32(p), int32(gid)})
		}
		for _, acc := range g.accs {
			acc.ensure(len(g.keys)) // a scalar aggregation over empty input still emits
		}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].first < order[b].first })
	group := func(k int) (*aggPart, int) {
		if order == nil {
			return parts[0], k
		}
		return parts[order[k].part], int(order[k].gid)
	}
	c.noteMem(int64(groups))
	c.noteMemBytes(charged)

	outCols := t.Columns()
	vecs := make([]*datum.Vec, len(outCols))
	for kc := range keyOff {
		v := datum.NewVec(datum.KindNull, groups)
		for k := 0; k < groups; k++ {
			g, gid := group(k)
			v.AppendD(g.keys[gid][kc])
		}
		vecs[kc] = v
	}
	for ai := range t.Aggs {
		v := datum.NewVec(datum.KindNull, groups)
		for k := 0; k < groups; k++ {
			g, gid := group(k)
			v.AppendD(g.accs[ai].result(gid))
		}
		vecs[len(keyOff)+ai] = v
	}
	return &Batch{Cols: outCols, Vecs: vecs, n: groups}, nil
}

// hashKeys computes the key hashes of the rows in sel.
func hashKeys(vecs []*datum.Vec, keyOff []int, sel []int32, hs []uint64) {
	hashInit(hs)
	for _, ko := range keyOff {
		hashCombineVec(vecs[ko], sel, hs)
	}
}

// --- hash join ---

// gatherVec materializes src rows named by idx into a fresh vector; negative
// indices produce NULL (the outer-join padding).
func gatherVec(src *datum.Vec, idx []int32) *datum.Vec {
	var out *datum.Vec
	if src.Boxed() {
		out = datum.NewAnyVec(len(idx))
	} else {
		out = datum.NewVec(src.Kind(), len(idx))
	}
	for _, i := range idx {
		if i < 0 {
			out.AppendNull()
		} else {
			out.AppendVec(src, int(i))
		}
	}
	return out
}

// vecKeysEqual reports whether the join keys match, with the row engine's
// datum.EqualOn semantics (NULLs are pre-filtered by the callers).
func vecKeysEqual(l *Batch, lOff []int, li int, r *Batch, rOff []int, ri int) bool {
	for k := range lOff {
		if !datum.Equal(l.Vecs[lOff[k]].D(li), r.Vecs[rOff[k]].D(ri)) {
			return false
		}
	}
	return true
}

// vecHashJoin builds a hash table on the right input and probes it with the
// left input's morsels, emitting (left, right) row index pairs that are
// gathered into output vectors at the end. Bucket lists hold build rows in
// selection order, so every probe row sees its matches in build order and the
// concatenated morsel outputs are the same at any degree.
func (c *Ctx) vecHashJoin(t *physical.HashJoin) (*Batch, error) {
	leftLayout, rightLayout := t.Left.Columns(), t.Right.Columns()
	lOff, err := offsetsOf(leftLayout, t.LeftKeys)
	if err != nil {
		return nil, err
	}
	rOff, err := offsetsOf(rightLayout, t.RightKeys)
	if err != nil {
		return nil, err
	}
	left, err := c.inputBatch(t.Left)
	if err != nil {
		return nil, err
	}
	right, err := c.inputBatch(t.Right)
	if err != nil {
		return nil, err
	}
	buildBytes := batchRowBytes(right)
	if err := c.Mem.Grow("hash join build", buildBytes); err != nil {
		// Build side over budget: degrade to the grace hash join on
		// materialized rows, which emits the identical rows.
		out, jerr := c.graceHashJoin(t, left.ToRows(), right.ToRows(), lOff, rOff)
		if jerr != nil {
			return nil, jerr
		}
		return batchFromRows(t.Columns(), out), nil
	}
	defer c.Mem.Shrink(buildBytes)
	c.noteMemBytes(buildBytes)

	rsel := right.liveSel()
	build := make(map[uint64][]int32, len(rsel))
	for lo := 0; lo < len(rsel); lo += MorselSize {
		chunk := rsel[lo:min(lo+MorselSize, len(rsel))]
		hs := getHashBuf(len(chunk))
		hashKeys(right.Vecs, rOff, chunk, hs)
		for k, ri := range chunk {
			if vecNullAt(right.Vecs, rOff, int(ri)) {
				continue // NULL keys never match; FullOuter emits them below
			}
			c.Counters.HashOps++
			build[hs[k]] = append(build[hs[k]], ri)
		}
		putHashBuf(hs)
	}
	c.noteMem(int64(right.NumRows()))

	// Probe: ri = -1 pads unmatched outer rows with NULLs at gather time.
	lsel := left.liveSel()
	semiShape := t.Kind == logical.SemiJoin || t.Kind == logical.AntiJoin
	combined := append(append([]logical.ColumnID{}, leftLayout...), rightLayout...)
	pairVecs := append(append([]*datum.Vec{}, left.Vecs...), right.Vecs...)
	lOut, rOut := newMorselOut[int32](c, len(lsel)), newMorselOut[int32](c, len(lsel))
	err = c.forMorsels(len(lsel), func(wc *Ctx, m, lo, hi int) error {
		var extra *rowEval
		if len(t.ExtraOn) > 0 {
			extra = wc.newRowEval(combined, pairVecs, len(left.Vecs), t.ExtraOn)
		}
		lDst, rDst := lOut.dst(m), rOut.dst(m)
		chunk := lsel[lo:hi]
		hs := getHashBuf(len(chunk))
		defer putHashBuf(hs)
		hashKeys(left.Vecs, lOff, chunk, hs)
		for k, li := range chunk {
			matched := false
			if !vecNullAt(left.Vecs, lOff, int(li)) {
				wc.Counters.HashOps++
				for _, ri := range build[hs[k]] {
					if !vecKeysEqual(left, lOff, int(li), right, rOff, int(ri)) {
						continue
					}
					wc.Counters.RowsProcessed++
					if extra != nil {
						extra.at(li, ri)
						ok, err := extra.pass(t.ExtraOn)
						if err != nil {
							return err
						}
						if !ok {
							continue
						}
					}
					matched = true
					switch t.Kind {
					case logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin:
						*lDst = append(*lDst, li)
						*rDst = append(*rDst, ri)
					case logical.SemiJoin:
						*lDst = append(*lDst, li)
					}
					if semiShape {
						break
					}
				}
			}
			switch t.Kind {
			case logical.LeftOuterJoin, logical.FullOuterJoin:
				if !matched {
					*lDst = append(*lDst, li)
					*rDst = append(*rDst, -1)
				}
			case logical.AntiJoin:
				if !matched {
					*lDst = append(*lDst, li)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	lIdx, rIdx := lOut.flat(), rOut.flat()
	if t.Kind == logical.FullOuterJoin {
		// Every matched build row appears in an emitted pair.
		rightMatched := make([]bool, right.n)
		for _, ri := range rIdx {
			if ri >= 0 {
				rightMatched[ri] = true
			}
		}
		for _, ri := range rsel {
			if !rightMatched[ri] {
				lIdx = append(lIdx, -1)
				rIdx = append(rIdx, ri)
			}
		}
	}

	outCols := t.Columns()
	vecs := make([]*datum.Vec, 0, len(outCols))
	for _, v := range left.Vecs[:len(leftLayout)] {
		vecs = append(vecs, gatherVec(v, lIdx))
	}
	if !semiShape {
		for _, v := range right.Vecs[:len(rightLayout)] {
			vecs = append(vecs, gatherVec(v, rIdx))
		}
	}
	return &Batch{Cols: outCols, Vecs: vecs, n: len(lIdx)}, nil
}
