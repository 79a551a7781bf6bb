// Columnar batches for the batch operators (§5.2's CPU-per-row constant
// attacked directly): a Batch is a set of typed column vectors plus an
// optional selection vector naming the live rows. Scans produce batches
// straight from storage, kernels in kernels.go filter/hash/aggregate them
// without per-row interface dispatch, and ToRows materializes the boundary to
// the row operators (joins other than hash, stream aggregation, sort, limit,
// union, values, exchange).
package exec

import (
	"sync"

	"repro/internal/datum"
	"repro/internal/logical"
)

// Batch is a columnar morsel: one vector per output column, all the same
// length, plus a selection vector. A nil Sel means every row is live;
// otherwise Sel holds the live row indices in ascending order. Kernels
// refine Sel instead of copying survivors, so a filter costs one index
// write per passing row.
type Batch struct {
	Cols []logical.ColumnID
	Vecs []*datum.Vec
	Sel  []int32
	n    int
}

// NumRows returns the number of live (selected) rows.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.n
}

// Len returns the physical row count before selection.
func (b *Batch) Len() int { return b.n }

// colIndex returns the vector offset of a column ID, or -1.
func (b *Batch) colIndex(id logical.ColumnID) int {
	for i, c := range b.Cols {
		if c == id {
			return i
		}
	}
	return -1
}

// ToRows materializes the live rows in selection order.
func (b *Batch) ToRows() []datum.Row {
	nr := b.NumRows()
	if nr == 0 {
		return nil
	}
	out := make([]datum.Row, nr)
	cells := make(datum.Row, nr*len(b.Vecs))
	for i := range out {
		out[i], cells = cells[:len(b.Vecs):len(b.Vecs)], cells[len(b.Vecs):]
	}
	for ci, v := range b.Vecs {
		if b.Sel != nil {
			for k, i := range b.Sel {
				out[k][ci] = v.D(int(i))
			}
			continue
		}
		for i := 0; i < b.n; i++ {
			out[i][ci] = v.D(i)
		}
	}
	return out
}

// batchFromRows converts row-engine output to a batch. Column kinds are
// inferred from the data (mixed-kind columns fall back to the boxed vector
// representation), so the conversion never fails.
func batchFromRows(layout []logical.ColumnID, rows []datum.Row) *Batch {
	b := &Batch{Cols: layout, Vecs: make([]*datum.Vec, len(layout)), n: len(rows)}
	for ci := range layout {
		kind := datum.KindNull
		for _, r := range rows {
			if k := r[ci].Kind(); k != datum.KindNull {
				kind = k
				break
			}
		}
		v := datum.NewVec(kind, len(rows))
		for _, r := range rows {
			v.AppendD(r[ci])
		}
		b.Vecs[ci] = v
	}
	return b
}

// batchRowBytes models the batch's live rows exactly like rowSetBytes models
// materialized rows, so a batch operator trips the budget at the same input
// size as the spilling implementation it degrades to.
func batchRowBytes(b *Batch) int64 {
	var total int64
	for _, v := range b.Vecs {
		total += v.DataBytes(b.Sel)
	}
	return total + int64(b.NumRows())*entryOverhead
}

// hashPool recycles per-chunk hash scratch for join/agg probes.
var hashPool = sync.Pool{New: func() any { h := make([]uint64, 0, MorselSize); return &h }}

func getHashBuf(n int) []uint64 {
	h := (*hashPool.Get().(*[]uint64))[:0]
	if cap(h) < n {
		h = make([]uint64, 0, n)
	}
	return h[:n]
}

func putHashBuf(h []uint64) {
	if cap(h) == 0 {
		return
	}
	hashPool.Put(&h)
}
