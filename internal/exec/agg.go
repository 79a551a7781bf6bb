package exec

import (
	"fmt"

	"repro/internal/datum"
	"repro/internal/logical"
)

// aggAcc accumulates one aggregate over a group.
type aggAcc interface {
	add(v datum.D)
	// merge folds another accumulator of the same concrete type into this
	// one, as if its inputs had been added here.
	merge(o aggAcc)
	result() datum.D
}

func newAgg(item logical.AggItem) aggAcc {
	var base aggAcc
	switch item.Fn {
	case logical.AggCount:
		base = &countAcc{star: item.Arg == nil}
	case logical.AggSum:
		base = &sumAcc{}
	case logical.AggAvg:
		base = &avgAcc{}
	case logical.AggMin:
		base = &minmaxAcc{min: true}
	case logical.AggMax:
		base = &minmaxAcc{}
	default:
		panic(fmt.Sprintf("exec: unknown aggregate %v", item.Fn))
	}
	if item.Distinct {
		return &distinctAcc{inner: base, seen: map[uint64][]datum.D{}}
	}
	return base
}

type countAcc struct {
	star bool
	n    int64
}

func (a *countAcc) add(v datum.D) {
	if a.star || !v.IsNull() {
		a.n++
	}
}
func (a *countAcc) merge(o aggAcc)  { a.n += o.(*countAcc).n }
func (a *countAcc) result() datum.D { return datum.NewInt(a.n) }

// sumAcc sums ints exactly in int64; float inputs switch it to a compensated
// exact float sum so the result is bit-identical whether rows arrive in one
// serial stream or as morsel partials merged at any parallelism degree.
type sumAcc struct {
	any     bool
	isFloat bool
	i       int64
	f       compSum
}

func (a *sumAcc) add(v datum.D) {
	if v.IsNull() {
		return
	}
	a.any = true
	if v.Kind() == datum.KindFloat || a.isFloat {
		a.promote()
		a.f.add(v.Float())
		return
	}
	a.i += v.Int()
}

// promote switches an int-typed accumulator to the float path, carrying the
// integer partial sum into the expansion.
func (a *sumAcc) promote() {
	if !a.isFloat {
		a.f.add(float64(a.i))
		a.isFloat = true
	}
}

func (a *sumAcc) merge(o aggAcc) {
	b := o.(*sumAcc)
	if !b.any {
		return
	}
	a.any = true
	if b.isFloat || a.isFloat {
		a.promote()
		if b.isFloat {
			a.f.merge(&b.f)
		} else {
			a.f.add(float64(b.i))
		}
		return
	}
	a.i += b.i
}

func (a *sumAcc) result() datum.D {
	if !a.any {
		return datum.Null
	}
	if a.isFloat {
		return datum.NewFloat(a.f.value())
	}
	return datum.NewInt(a.i)
}

// avgAcc carries an exact sum and a count; like sumAcc, the division happens
// once at result time over the order-independent exact sum, so parallel and
// serial AVG agree to the bit.
type avgAcc struct {
	n   int64
	sum compSum
}

func (a *avgAcc) add(v datum.D) {
	if v.IsNull() {
		return
	}
	a.n++
	a.sum.add(v.Float())
}

func (a *avgAcc) merge(o aggAcc) {
	b := o.(*avgAcc)
	a.n += b.n
	a.sum.merge(&b.sum)
}

func (a *avgAcc) result() datum.D {
	if a.n == 0 {
		return datum.Null
	}
	return datum.NewFloat(a.sum.value() / float64(a.n))
}

type minmaxAcc struct {
	min bool
	any bool
	val datum.D
}

func (a *minmaxAcc) add(v datum.D) {
	if v.IsNull() {
		return
	}
	if !a.any {
		a.any = true
		a.val = v
		return
	}
	c := datum.Compare(v, a.val)
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.val = v
	}
}

func (a *minmaxAcc) merge(o aggAcc) {
	b := o.(*minmaxAcc)
	if b.any {
		a.add(b.val)
	}
}

func (a *minmaxAcc) result() datum.D {
	if !a.any {
		return datum.Null
	}
	return a.val
}

// distinctAcc deduplicates inputs before feeding the inner accumulator.
type distinctAcc struct {
	inner aggAcc
	seen  map[uint64][]datum.D
}

func (a *distinctAcc) add(v datum.D) {
	if v.IsNull() {
		return
	}
	h := v.Hash()
	for _, prev := range a.seen[h] {
		if datum.Equal(prev, v) {
			return
		}
	}
	a.seen[h] = append(a.seen[h], v)
	a.inner.add(v)
}

func (a *distinctAcc) merge(o aggAcc) {
	// Replaying the other side's distinct values through add keeps the
	// combined deduplication exact.
	for _, vs := range o.(*distinctAcc).seen {
		for _, v := range vs {
			a.add(v)
		}
	}
}

func (a *distinctAcc) result() datum.D { return a.inner.result() }

// groupTable accumulates groups keyed by grouping-column values. When mem is
// set, every new group reserves its modeled footprint from the account and
// add/ensure fail with the budget error instead of growing — the caller then
// degrades to spillGroupBy.
type groupTable struct {
	aggs     []logical.AggItem
	groups   map[uint64][]*groupEntry
	order    []*groupEntry // insertion order for determinism
	scalar   bool          // no group cols: always exactly one group
	groupLen int
	mem      *MemAccount // optional memory account, charged per group
	memOp    string      // operator name reported on budget errors
	floor    int64       // minimal working set always granted (spill partitions)
	charged  int64       // bytes reserved so far; returned by release
}

type groupEntry struct {
	key  datum.Row
	accs []aggAcc
}

func newGroupTable(groupLen int, aggs []logical.AggItem) *groupTable {
	gt := &groupTable{
		aggs:     aggs,
		groups:   map[uint64][]*groupEntry{},
		scalar:   groupLen == 0,
		groupLen: groupLen,
	}
	if gt.scalar {
		// mem is never set this early, so the single global group cannot fail.
		gt.ensure(nil, 0)
	}
	return gt
}

// presize pre-allocates the hash buckets and insertion-order slice for an
// expected group count — the optimizer's cardinality estimate, so a
// well-estimated aggregation never rehashes while growing. Call before the
// first add; no-op for scalar tables (their single group already exists).
func (gt *groupTable) presize(hint int) {
	if gt.scalar || hint <= 0 {
		return
	}
	if hint > 1<<20 {
		hint = 1 << 20 // a wild overestimate must not make presizing the cost
	}
	gt.groups = make(map[uint64][]*groupEntry, hint)
	gt.order = make([]*groupEntry, 0, hint)
}

// entryBytes models the footprint of one group: key data plus bookkeeping
// plus a fixed per-accumulator cost.
func (gt *groupTable) entryBytes(key datum.Row) int64 {
	return int64(key.Size()) + entryOverhead + int64(48*len(gt.aggs))
}

// release returns every byte this table reserved to the account.
func (gt *groupTable) release() {
	if gt.mem != nil && gt.charged > 0 {
		gt.mem.Shrink(gt.charged)
		gt.charged = 0
	}
}

func (gt *groupTable) ensure(key datum.Row, hash uint64) (*groupEntry, error) {
	for _, e := range gt.groups[hash] {
		if keysEqual(e.key, key) {
			return e, nil
		}
	}
	if gt.mem != nil {
		n := gt.entryBytes(key)
		if err := gt.mem.GrowFloor(gt.memOp, n, gt.charged, gt.floor); err != nil {
			return nil, err
		}
		gt.charged += n
	}
	e := &groupEntry{key: key, accs: make([]aggAcc, len(gt.aggs))}
	for i, a := range gt.aggs {
		e.accs[i] = newAgg(a)
	}
	gt.groups[hash] = append(gt.groups[hash], e)
	gt.order = append(gt.order, e)
	return e, nil
}

func keysEqual(a, b datum.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !datum.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// add feeds one input row: key values plus the evaluated aggregate arguments
// (one per agg; COUNT(*) entries get a non-NULL placeholder). It fails only
// when creating the group would exceed the memory budget.
func (gt *groupTable) add(key datum.Row, hash uint64, argVals []datum.D) error {
	if gt.scalar {
		key, hash = nil, 0 // single global group
	}
	e, err := gt.ensure(key, hash)
	if err != nil {
		return err
	}
	for i := range gt.aggs {
		e.accs[i].add(argVals[i])
	}
	return nil
}

// mergeFrom folds another table's groups into gt (same group layout and
// aggregates).
func (gt *groupTable) mergeFrom(o *groupTable) error {
	for _, e := range o.order {
		var h uint64
		if !gt.scalar && len(e.key) > 0 {
			h = e.key.Hash(seqOffsets(len(e.key)))
		}
		dst, err := gt.ensure(e.key, h)
		if err != nil {
			return err
		}
		for i := range gt.aggs {
			dst.accs[i].merge(e.accs[i])
		}
	}
	return nil
}

// rows emits one output row per group: key columns then aggregate results.
func (gt *groupTable) rows() []datum.Row {
	out := make([]datum.Row, 0, len(gt.order))
	for _, e := range gt.order {
		row := make(datum.Row, 0, gt.groupLen+len(gt.aggs))
		row = append(row, e.key...)
		for _, acc := range e.accs {
			row = append(row, acc.result())
		}
		out = append(out, row)
	}
	return out
}
