// Sort and LIMIT as batch operators: the §6.2 sort enforcer orders the live
// rows of its input batch as an index permutation and gathers the output
// vectors once. A LIMIT directly over a Sort — or over the order-preserving
// Exchange that parallelization puts between them — hands its row count to
// the sort, which then keeps a bounded max-heap of that many row indices
// instead of ordering every row: O(n log k) comparisons and k rows of working
// memory ("stop after" evaluation, Carey & Kossmann, SIGMOD 1997).
//
// Ties break on input position, so the order is exactly the stable sort's at
// every degree. A serial sort is one run. When the sort fans out, each worker
// sorts (or keeps the top k of) one contiguous chunk and the runs merge by
// (key, position).
package exec

import (
	"fmt"
	"slices"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// topN is the bound a LIMIT hands to the Sort below it: that sort keeps only
// its first n rows.
type topN struct {
	sort *physical.Sort
	n    int64
}

// vecLimit keeps the first N live rows of its input. A Sort below it keeps
// only those rows in the first place, and both it and the exchange over it
// report the bound to EXPLAIN ANALYZE.
func (c *Ctx) vecLimit(t *physical.LimitOp) (*Batch, error) {
	s := limitedSort(t.Input)
	if s != nil {
		c.topN = topN{sort: s, n: t.N}
		defer func() { c.topN = topN{} }()
	}
	in, err := c.inputBatch(t.Input)
	if err != nil {
		return nil, err
	}
	if s != nil && c.Metrics != nil {
		for _, p := range []physical.Plan{t.Input, s} {
			m := c.Metrics.Node(p)
			m.TopN, m.TopNRows = true, t.N
		}
	}
	if int64(in.NumRows()) <= t.N {
		return in, nil
	}
	sel := identSel(int(t.N))
	if in.Sel != nil {
		sel = in.Sel[:t.N]
	}
	return &Batch{Cols: in.Cols, Vecs: in.Vecs, Sel: sel, n: in.n}, nil
}

// limitedSort returns the Sort whose output a LIMIT over p truncates: p
// itself, or the input of an Exchange that merges on a prefix of the sort
// order — such an exchange reproduces its sorted input row for row.
func limitedSort(p physical.Plan) *physical.Sort {
	if ex, ok := p.(*physical.Exchange); ok {
		s, _ := ex.Input.(*physical.Sort)
		if s == nil || len(ex.MergeOrdering) == 0 || !ex.MergeOrdering.SatisfiedBy(s.By) {
			return nil
		}
		return s
	}
	s, _ := p.(*physical.Sort)
	return s
}

// vecSort orders the live rows of its input by t.By — only the first
// c.topN.n of them when a LIMIT bounds this sort. A full sort reserves its
// input's bytes and a top-N the bytes of the rows it keeps; when the
// reservation fails, the sort degrades to the external merge sort, which
// emits the identical order.
func (c *Ctx) vecSort(t *physical.Sort) (*Batch, error) {
	limit := -1
	if c.topN.sort == t {
		limit = int(c.topN.n)
	}
	in, err := c.inputBatch(t.Input)
	if err != nil {
		return nil, err
	}
	spec, err := sortSpec(in.Cols, t.By)
	if err != nil {
		return nil, err
	}
	sel := in.liveSel()
	if in.Sel != nil {
		sel = slices.Clone(sel) // sorting permutes sel in place
	}
	bounded := limit >= 0 && limit < len(sel)
	if !bounded {
		limit = -1
		c.noteMem(int64(len(sel)))
		need := batchRowBytes(in)
		if err := c.Mem.Grow("sort", need); err != nil {
			return c.spillSort(in, spec, limit)
		}
		defer c.Mem.Shrink(need)
		c.noteMemBytes(need)
	}
	perm, err := c.sortPerm(in.Vecs, spec, sel, limit)
	if err != nil {
		return nil, err
	}
	if bounded {
		c.noteMem(int64(len(perm)))
		need := batchRowBytes(&Batch{Vecs: in.Vecs, Sel: perm})
		if err := c.Mem.Grow("sort", need); err != nil {
			return c.spillSort(in, spec, limit)
		}
		defer c.Mem.Shrink(need)
		c.noteMemBytes(need)
	}
	vecs := make([]*datum.Vec, len(in.Vecs))
	for i, v := range in.Vecs {
		vecs[i] = v.Gather(perm)
	}
	return &Batch{Cols: in.Cols, Vecs: vecs, n: len(perm)}, nil
}

// sortSpec resolves an ordering to offsets in a layout. An ORDER BY column
// missing from the layout is an execution error — silently returning
// unsorted rows would hide a planner bug.
func sortSpec(layout []logical.ColumnID, by logical.Ordering) ([]datum.SortSpec, error) {
	res := &Result{Cols: layout}
	spec := make([]datum.SortSpec, len(by))
	for i, o := range by {
		off := res.ColIndex(o.Col)
		if off < 0 {
			return nil, fmt.Errorf("exec: ORDER BY column @%d not in result layout", int(o.Col))
		}
		spec[i] = datum.SortSpec{Col: off, Desc: o.Desc}
	}
	return spec, nil
}

// spillSort is the over-budget sort: the external merge sort over the live
// rows, cut to limit rows when limit >= 0.
func (c *Ctx) spillSort(in *Batch, spec []datum.SortSpec, limit int) (*Batch, error) {
	rows, err := c.externalSortRows(in.ToRows(), spec)
	if err != nil {
		return nil, err
	}
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return batchFromRows(in.Cols, rows), nil
}

// sortPerm returns the row indices of sel in sorted order, only the first
// limit of them when limit >= 0. It may permute sel in place.
func (c *Ctx) sortPerm(vecs []*datum.Vec, spec []datum.SortSpec, sel []int32, limit int) ([]int32, error) {
	if !c.fanOut(len(sel)) {
		return c.sortRun(vecs, spec, sel, limit)
	}
	nW := c.workers()
	chunk := (len(sel) + nW - 1) / nW
	runs := make([][]int32, nW)
	err := c.runWorkers(nW, func(w int, wc *Ctx) error {
		lo := min(w*chunk, len(sel))
		var err error
		runs[w], err = wc.sortRun(vecs, spec, sel[lo:min(lo+chunk, len(sel))], limit)
		return err
	})
	if err != nil {
		return nil, err
	}
	perm := mergeRuns(runs, limit, c.rowCmp(vecs, spec))
	if err := c.canceled(); err != nil {
		return nil, err
	}
	return perm, nil
}

// sortRun orders one run of row indices: sel itself, sorted in place, or,
// when limit bounds it below the run length, a bounded max-heap of the limit
// smallest rows.
func (c *Ctx) sortRun(vecs []*datum.Vec, spec []datum.SortSpec, sel []int32, limit int) ([]int32, error) {
	cmp := c.rowCmp(vecs, spec)
	var run []int32
	if limit < 0 || limit >= len(sel) {
		run = sel
	} else if limit > 0 {
		run = make([]int32, 0, limit)
		for lo := 0; lo < len(sel); lo += MorselSize {
			if err := c.canceled(); err != nil {
				return nil, err
			}
			for _, i := range sel[lo:min(lo+MorselSize, len(sel))] {
				switch {
				case len(run) < limit:
					run = append(run, i)
					heapUp(run, len(run)-1, cmp)
				case cmp(i, run[0]) < 0:
					run[0] = i
					heapDown(run, 0, cmp)
				}
			}
		}
	}
	slices.SortFunc(run, cmp)
	if err := c.canceled(); err != nil {
		return nil, err
	}
	return run, nil
}

// rowCmp orders row indices by the sort keys, then by index. It counts every
// call in Comparisons and polls for cancellation every MorselSize calls; once
// the query is canceled it reports every pair equal, so a sort in flight
// drains in linear time and its caller returns the context's error.
func (c *Ctx) rowCmp(vecs []*datum.Vec, spec []datum.SortSpec) func(a, b int32) int {
	keys := make([]func(a, b int32) int, len(spec))
	for i, s := range spec {
		keys[i] = colCmp(vecs[s.Col])
	}
	stopped := false
	return func(a, b int32) int {
		c.Counters.Comparisons++
		if c.Counters.Comparisons%MorselSize == 0 && c.canceled() != nil {
			stopped = true
		}
		if stopped {
			return 0
		}
		for i, s := range spec {
			if r := keys[i](a, b); r != 0 {
				if s.Desc {
					return -r
				}
				return r
			}
		}
		return int(a) - int(b)
	}
}

// colCmp compares rows a and b of v in datum.Compare's order (NULL first),
// on the typed payload where there is one: dictionary codes order like the
// strings they stand for, because dictionaries are sorted.
func colCmp(v *datum.Vec) func(a, b int32) int {
	var typed func(a, b int32) int
	switch {
	case v.Boxed() || v.Kind() == datum.KindNull:
		return func(a, b int32) int { return datum.Compare(v.D(int(a)), v.D(int(b))) }
	case v.Dict != nil, v.Kind() == datum.KindInt, v.Kind() == datum.KindBool:
		ints := v.Ints
		typed = func(a, b int32) int { return cmpOrd(ints[a], ints[b]) }
	case v.Kind() == datum.KindFloat:
		floats := v.Floats
		typed = func(a, b int32) int { return cmpOrd(floats[a], floats[b]) }
	default:
		strs := v.Strs
		typed = func(a, b int32) int { return cmpOrd(strs[a], strs[b]) }
	}
	nulls := v.Nulls()
	if nulls == nil {
		return typed
	}
	return func(a, b int32) int {
		an, bn := nulls.Get(int(a)), nulls.Get(int(b))
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		case bn:
			return 1
		}
		return typed(a, b)
	}
}

// cmpOrd is a three-way compare through < and > only, so floats compare as
// datum.Compare does (NaN neither below nor above anything).
func cmpOrd[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// heapUp and heapDown restore the max-heap order of h (largest row first
// under cmp) after h[i] was appended or replaced.
func heapUp(h []int32, i int, cmp func(a, b int32) int) {
	for i > 0 {
		p := (i - 1) / 2
		if cmp(h[i], h[p]) <= 0 {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func heapDown(h []int32, i int, cmp func(a, b int32) int) {
	for {
		big := 2*i + 1
		if big >= len(h) {
			return
		}
		if r := big + 1; r < len(h) && cmp(h[r], h[big]) > 0 {
			big = r
		}
		if cmp(h[big], h[i]) <= 0 {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}
