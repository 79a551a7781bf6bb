package exec

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// Run executes a physical plan to completion and returns the materialized
// result in the plan's layout.
func Run(p physical.Plan, c *Ctx) (*Result, error) {
	rows, err := c.runPlan(p)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: p.Columns(), Rows: rows}, nil
}

// RunPlanQuery executes a physical plan for a query: run, order, project.
func RunPlanQuery(p physical.Plan, q *logical.Query, c *Ctx) (*Result, error) {
	res, err := Run(p, c)
	if err != nil {
		return nil, err
	}
	if len(q.OrderBy) > 0 && !q.OrderBy.SatisfiedBy(p.Ordering()) {
		if err := c.sortResult(res, q.OrderBy); err != nil {
			return nil, err
		}
	}
	return presentation(res, q)
}

// sortResult sorts rows in place by the ordering over the result layout. An
// ORDER BY column missing from the layout is an execution error — silently
// returning unsorted rows would hide a planner bug.
func (c *Ctx) sortResult(res *Result, by logical.Ordering) error {
	spec := make([]datum.SortSpec, len(by))
	for i, o := range by {
		off := res.ColIndex(o.Col)
		if off < 0 {
			return fmt.Errorf("exec: ORDER BY column @%d not in result layout", int(o.Col))
		}
		spec[i] = datum.SortSpec{Col: off, Desc: o.Desc}
	}
	c.noteMem(int64(len(res.Rows)))
	need := rowSetBytes(res.Rows)
	if err := c.Mem.Grow("sort", need); err != nil {
		// The sort buffer does not fit the budget: degrade to an external
		// merge sort, which emits the identical stable order.
		rows, serr := c.externalSortRows(res.Rows, spec)
		if serr != nil {
			return serr
		}
		res.Rows = rows
		return nil
	}
	defer c.Mem.Shrink(need)
	c.noteMemBytes(need)
	if c.fanOut(len(res.Rows)) {
		res.Rows = c.sortRowsParallel(res.Rows, spec)
		return nil
	}
	sort.SliceStable(res.Rows, func(i, j int) bool {
		c.Counters.Comparisons++
		return datum.CompareRows(res.Rows[i], res.Rows[j], spec) < 0
	})
	return nil
}

// metered runs one operator under the analyze meter: fn executes it and
// reports the rows it produced. The nil check is the entire cost of the
// instrumentation when analyze is off. Every operator entry doubles as a
// cancellation checkpoint.
func (c *Ctx) metered(p physical.Plan, fn func() (int, error)) error {
	if err := c.canceled(); err != nil {
		return err
	}
	if c.Metrics == nil {
		_, err := fn()
		return err
	}
	m := c.Metrics.Node(p)
	m.Invocations++
	prev := c.curNode
	c.curNode = m
	start := time.Now()
	n, err := fn()
	m.WallNanos += time.Since(start).Nanoseconds()
	m.ActualRows += int64(n)
	c.curNode = prev
	return err
}

// runPlan runs one operator for a row consumer: batch operators are
// materialized into rows at this boundary.
func (c *Ctx) runPlan(p physical.Plan) ([]datum.Row, error) {
	var rows []datum.Row
	err := c.metered(p, func() (int, error) {
		b, ok, err := c.execBatch(p)
		if !ok {
			rows, err = c.execPlan(p)
		} else if err == nil {
			rows = b.ToRows()
		}
		return len(rows), err
	})
	return rows, err
}

// execPlan runs the row operators — the operators without a batch
// implementation. They materialize their output; joins materialize their
// inputs explicitly (the engine caches nothing across calls).
func (c *Ctx) execPlan(p physical.Plan) ([]datum.Row, error) {
	switch t := p.(type) {
	case *physical.ValuesOp:
		res, err := c.naiveValues(&logical.Values{Cols: t.Cols, Rows: t.Rows}, nil)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	case *physical.Sort:
		in, err := c.runPlan(t.Input)
		if err != nil {
			return nil, err
		}
		res := &Result{Cols: t.Input.Columns(), Rows: in}
		if err := c.sortResult(res, t.By); err != nil {
			return nil, err
		}
		return res.Rows, nil
	case *physical.NLJoin:
		return c.runNLJoin(t)
	case *physical.INLJoin:
		return c.runINLJoin(t)
	case *physical.MergeJoin:
		return c.runMergeJoin(t)
	case *physical.StreamGroupBy:
		return c.runStreamGroupBy(t)
	case *physical.LimitOp:
		in, err := c.runPlan(t.Input)
		if err != nil {
			return nil, err
		}
		if int64(len(in)) > t.N {
			in = in[:t.N]
		}
		return in, nil
	case *physical.Exchange:
		return c.runExchange(t)
	case *physical.UnionAll:
		left, err := c.runPlan(t.Left)
		if err != nil {
			return nil, err
		}
		right, err := c.runPlan(t.Right)
		if err != nil {
			return nil, err
		}
		out := &Result{Cols: t.Cols}
		if err := appendAligned(out, &Result{Cols: t.Left.Columns(), Rows: left}, t.LeftCols); err != nil {
			return nil, err
		}
		if err := appendAligned(out, &Result{Cols: t.Right.Columns(), Rows: right}, t.RightCols); err != nil {
			return nil, err
		}
		c.Counters.RowsProcessed += int64(len(out.Rows))
		return out.Rows, nil
	}
	return nil, fmt.Errorf("exec: unknown physical operator %T", p)
}

func (c *Ctx) runNLJoin(t *physical.NLJoin) ([]datum.Row, error) {
	left, err := c.runPlan(t.Left)
	if err != nil {
		return nil, err
	}
	right, err := c.runPlan(t.Right)
	if err != nil {
		return nil, err
	}
	leftRes := &Result{Cols: t.Left.Columns(), Rows: left}
	rightRes := &Result{Cols: t.Right.Columns(), Rows: right}
	if c.fanOut(len(left) * max(len(right), 1)) {
		return c.runNLJoinParallel(t, leftRes, rightRes)
	}
	lj := &logical.Join{Kind: t.Kind, On: t.On}
	return c.joinMaterialized(lj, leftRes, rightRes)
}

// joinMaterialized performs the generic nested-loop join over materialized
// inputs (shared with the naive engine's semantics).
func (c *Ctx) joinMaterialized(t *logical.Join, left, right *Result) ([]datum.Row, error) {
	combined := append(append([]logical.ColumnID{}, left.Cols...), right.Cols...)
	e := newEnv(combined, nil)
	var out []datum.Row
	rightWidth := len(right.Cols)
	rightMatched := make([]bool, len(right.Rows))
	// Aim for one cancellation check per ~MorselSize processed row pairs.
	checkEvery := MorselSize/(len(right.Rows)+1) + 1
	for li, lr := range left.Rows {
		if li%checkEvery == 0 {
			if err := c.canceled(); err != nil {
				return nil, err
			}
		}
		matched := false
		for ri, rr := range right.Rows {
			c.Counters.RowsProcessed++
			e.row = lr.Concat(rr)
			ok, err := c.filterRow(t.On, e)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			matched = true
			rightMatched[ri] = true
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
	if t.Kind == logical.FullOuterJoin {
		leftWidth := len(left.Cols)
		for ri, rr := range right.Rows {
			if !rightMatched[ri] {
				out = append(out, nullRow(leftWidth).Concat(rr))
			}
		}
	}
	return out, nil
}

func (c *Ctx) runINLJoin(t *physical.INLJoin) ([]datum.Row, error) {
	left, err := c.runPlan(t.Left)
	if err != nil {
		return nil, err
	}
	tab, ok := c.Store.Table(t.Table.Name)
	if !ok {
		return nil, fmt.Errorf("exec: no storage for table %s", t.Table.Name)
	}
	ix, err := tab.Index(t.Index.Name)
	if err != nil {
		return nil, err
	}
	leftLayout := t.Left.Columns()
	keyOffsets := make([]int, len(t.LeftKeys))
	for i, k := range t.LeftKeys {
		off := (&Result{Cols: leftLayout}).ColIndex(k)
		if off < 0 {
			return nil, fmt.Errorf("exec: INL key @%d not in outer layout", int(k))
		}
		keyOffsets[i] = off
	}
	if c.fanOut(len(left)) {
		return c.runINLJoinParallel(t, left, tab, ix, keyOffsets)
	}
	combined := append(append([]logical.ColumnID{}, leftLayout...), t.Cols...)
	e := newEnv(combined, nil)
	innerWidth := len(t.Cols)
	var out []datum.Row
	for li, lr := range left {
		if li%MorselSize == 0 {
			if err := c.canceled(); err != nil {
				return nil, err
			}
		}
		// NULL keys never match under SQL equality.
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
			c.Counters.IndexSeeks++
			ids := ix.SeekEq(key)
			for _, id := range ids {
				c.touchRow(tab, id)
			}
			for _, id := range ids {
				c.Counters.RowsProcessed++
				ir, err := c.rowAt(tab, id)
				if err != nil {
					return nil, err
				}
				rr := projectRow(ir, t.ColOrds)
				e.row = lr.Concat(rr)
				ok, err := c.filterRow(t.ExtraOn, e)
				if err != nil {
					return nil, err
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
	return out, nil
}

func (c *Ctx) runMergeJoin(t *physical.MergeJoin) ([]datum.Row, error) {
	left, err := c.runPlan(t.Left)
	if err != nil {
		return nil, err
	}
	right, err := c.runPlan(t.Right)
	if err != nil {
		return nil, err
	}
	leftLayout, rightLayout := t.Left.Columns(), t.Right.Columns()
	lOff, err := offsetsOf(leftLayout, t.LeftKeys)
	if err != nil {
		return nil, err
	}
	rOff, err := offsetsOf(rightLayout, t.RightKeys)
	if err != nil {
		return nil, err
	}
	combined := append(append([]logical.ColumnID{}, leftLayout...), rightLayout...)
	e := newEnv(combined, nil)
	rightWidth := len(rightLayout)
	var out []datum.Row

	li, ri := 0, 0
	for iters := 0; li < len(left); iters++ {
		if iters%MorselSize == 0 {
			if err := c.canceled(); err != nil {
				return nil, err
			}
		}
		lr := left[li]
		if hasNullAt(lr, lOff) {
			// NULL keys match nothing.
			if t.Kind == logical.LeftOuterJoin {
				out = append(out, lr.Concat(nullRow(rightWidth)))
			} else if t.Kind == logical.AntiJoin {
				out = append(out, lr)
			}
			li++
			continue
		}
		// Advance right until >= left key.
		for ri < len(right) && (hasNullAt(right[ri], rOff) || compareKeys(right[ri], rOff, lr, lOff, &c.Counters) < 0) {
			ri++
		}
		// Collect the right group equal to the left key.
		rj := ri
		for rj < len(right) && compareKeys(right[rj], rOff, lr, lOff, &c.Counters) == 0 {
			rj++
		}
		// Emit all left rows with this key against the group.
		lj := li
		for lj < len(left) && compareKeys(left[lj], lOff, lr, lOff, &c.Counters) == 0 {
			curr := left[lj]
			matched := false
			for k := ri; k < rj; k++ {
				c.Counters.RowsProcessed++
				e.row = curr.Concat(right[k])
				ok, err := c.filterRow(t.ExtraOn, e)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
				matched = true
				switch t.Kind {
				case logical.InnerJoin, logical.LeftOuterJoin:
					out = append(out, curr.Concat(right[k]))
				case logical.SemiJoin:
					out = append(out, curr)
				}
				if t.Kind == logical.SemiJoin || t.Kind == logical.AntiJoin {
					break
				}
			}
			switch t.Kind {
			case logical.LeftOuterJoin:
				if !matched {
					out = append(out, curr.Concat(nullRow(rightWidth)))
				}
			case logical.AntiJoin:
				if !matched {
					out = append(out, curr)
				}
			}
			lj++
		}
		li = lj
	}
	return out, nil
}

func offsetsOf(layout []logical.ColumnID, keys []logical.ColumnID) ([]int, error) {
	res := &Result{Cols: layout}
	out := make([]int, len(keys))
	for i, k := range keys {
		off := res.ColIndex(k)
		if off < 0 {
			return nil, fmt.Errorf("exec: key column @%d not in layout", int(k))
		}
		out[i] = off
	}
	return out, nil
}

func hasNullAt(r datum.Row, offs []int) bool {
	for _, o := range offs {
		if r[o].IsNull() {
			return true
		}
	}
	return false
}

func compareKeys(a datum.Row, aOff []int, b datum.Row, bOff []int, counters *Counters) int {
	counters.Comparisons++
	for i := range aOff {
		c := datum.Compare(a[aOff[i]], b[bOff[i]])
		if c != 0 {
			return c
		}
	}
	return 0
}

// runStreamGroupBy aggregates input sorted on the group columns. A real
// iterator engine holds one group at a time here, so unlike the hash
// aggregation its table is not budgeted working memory.
func (c *Ctx) runStreamGroupBy(t *physical.StreamGroupBy) ([]datum.Row, error) {
	in, err := c.runPlan(t.Input)
	if err != nil {
		return nil, err
	}
	layout := t.Input.Columns()
	keyOff, err := offsetsOf(layout, t.GroupCols)
	if err != nil {
		return nil, err
	}
	gt := newGroupTable(len(t.GroupCols), t.Aggs)
	gt.presize(int(t.Rows))
	e := newEnv(layout, nil)
	ectx := c.evalCtx(e)
	for ri, r := range in {
		if ri%MorselSize == 0 {
			if err := c.canceled(); err != nil {
				return nil, err
			}
		}
		c.Counters.RowsProcessed++
		e.row = r
		key := make(datum.Row, len(keyOff))
		for i, off := range keyOff {
			key[i] = r[off]
		}
		args := make([]datum.D, len(t.Aggs))
		for i, a := range t.Aggs {
			if a.Arg == nil {
				args[i] = datum.NewInt(1)
				continue
			}
			v, err := logical.Eval(a.Arg, ectx)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		if err := gt.add(key, key.Hash(seqOffsets(len(key))), args); err != nil {
			return nil, err
		}
	}
	c.noteMem(int64(len(gt.order)))
	return gt.rows(), nil
}
