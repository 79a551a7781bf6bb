// Spill-to-disk graceful degradation (the resource governor's answer to §5.2's
// buffer-dependent operator costs): when an operator's working memory cannot
// be reserved from the query's MemAccount, it degrades instead of failing —
//
//   - Sort runs an external merge sort: budget-sized runs are sorted in
//     memory, spilled to temp files, and k-way merged back.
//   - Hash join runs a grace hash join: the build side is hash-partitioned to
//     temp files and each partition is built and probed on its own, so only
//     one partition's hash table is ever in memory.
//   - Hash aggregation partitions its input rows to temp files by group-key
//     hash and aggregates one partition at a time.
//
// All three degraded paths emit exactly the rows, in exactly the order, of
// their in-memory counterparts (runs and probes carry original row indexes,
// and partition outputs are merged back by them), so a query under a 64 KiB
// budget is bit-identical to the same query with no budget at all. Only when
// even a single partition cannot fit — e.g. a hash join whose build keys are
// all equal — does the query fail, with ErrMemoryBudgetExceeded.
//
// Spill files live in Ctx.TempDir (default os.TempDir) and every create,
// write and read passes through the fault injector under the operation names
// "spill.create", "spill.write" and "spill.read".
package exec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// minSpillChunk is the minimum working set a degraded operator uses even when
// the budget is smaller — the governor's minimal memory grant; without it a
// one-byte budget would mean one-row spill files.
const minSpillChunk = 64 << 10

// spillFloor is the per-partition reservation granted unconditionally to
// degraded operators (see MemAccount.GrowFloor). It is twice the fanout
// target so ordinary hash skew — partitions moderately above the average —
// still completes; only pathological skew (e.g. one key holding most rows)
// exceeds it and fails with the typed budget error.
const spillFloor = 2 * minSpillChunk

// maxSpillFanout bounds how many partitions/runs one spill pass produces.
const maxSpillFanout = 64

// spillFanout picks the partition count that makes one partition's working
// set about half the available budget.
func spillFanout(totalBytes, avail int64) int {
	target := avail / 2
	if target < minSpillChunk {
		target = minSpillChunk
	}
	p := int((totalBytes + target - 1) / target)
	if p < 2 {
		p = 2
	}
	if p > maxSpillFanout {
		p = maxSpillFanout
	}
	return p
}

// rowSetBytes is the modeled working-memory footprint of holding rows in an
// operator-owned structure (hash table, sort buffer): data bytes plus a
// per-entry bookkeeping overhead.
func rowSetBytes(rows []datum.Row) int64 {
	var n int64
	for _, r := range rows {
		n += int64(r.Size()) + entryOverhead
	}
	return n
}

// --- spill files ---

// spillWriter writes (tag, row) records to a temp file through the fault
// injector. Tags carry original row indexes so readers can restore the
// in-memory row order.
type spillWriter struct {
	c     *Ctx
	f     *os.File
	w     *bufio.Writer
	bytes int64
	rows  int64
}

func (c *Ctx) newSpillWriter() (*spillWriter, error) {
	if err := c.step("spill.create"); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(c.TempDir, "qopt-spill-*")
	if err != nil {
		return nil, fmt.Errorf("exec: create spill file: %w", err)
	}
	return &spillWriter{c: c, f: f, w: bufio.NewWriterSize(f, 16<<10)}, nil
}

// discard removes the spill file (writer or reader side may call it once).
func (sw *spillWriter) discard() {
	if sw == nil || sw.f == nil {
		return
	}
	name := sw.f.Name()
	sw.f.Close()
	os.Remove(name)
	sw.f = nil
}

func (sw *spillWriter) writeRow(tag int64, r datum.Row) error {
	if err := sw.c.step("spill.write"); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], tag)
	if _, err := sw.w.Write(buf[:n]); err != nil {
		return err
	}
	sw.bytes += int64(n)
	n2, err := encodeRow(sw.w, r)
	if err != nil {
		return err
	}
	sw.bytes += n2
	sw.rows++
	return nil
}

// finish flushes the file and records the spill against the counters and the
// current operator's metrics. A writer with zero rows still counts: the
// partition existed, it was just empty.
func (sw *spillWriter) finish() error {
	if err := sw.w.Flush(); err != nil {
		return fmt.Errorf("exec: flush spill file: %w", err)
	}
	sw.c.noteSpill(1, sw.bytes)
	return nil
}

// reader rewinds the file and returns a record reader over it.
func (sw *spillWriter) reader() (*spillReader, error) {
	if _, err := sw.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return &spillReader{c: sw.c, r: bufio.NewReaderSize(sw.f, 16<<10), left: sw.rows}, nil
}

// spillReader streams (tag, row) records back.
type spillReader struct {
	c    *Ctx
	r    *bufio.Reader
	left int64
}

// next returns the next record, or ok=false at end of stream.
func (sr *spillReader) next() (int64, datum.Row, bool, error) {
	if sr.left == 0 {
		return 0, nil, false, nil
	}
	if err := sr.c.step("spill.read"); err != nil {
		return 0, nil, false, err
	}
	tag, err := binary.ReadVarint(sr.r)
	if err != nil {
		return 0, nil, false, fmt.Errorf("exec: read spill record: %w", err)
	}
	row, err := decodeRow(sr.r)
	if err != nil {
		return 0, nil, false, err
	}
	sr.left--
	return tag, row, true, nil
}

// encodeRow writes a row as: uvarint column count, then one kind byte and
// payload per datum. Floats are stored as raw IEEE bits, so a spilled row
// decodes bit-identically.
func encodeRow(w *bufio.Writer, r datum.Row) (int64, error) {
	var buf [binary.MaxVarintLen64]byte
	var written int64
	put := func(b []byte) error {
		_, err := w.Write(b)
		written += int64(len(b))
		return err
	}
	if err := put(buf[:binary.PutUvarint(buf[:], uint64(len(r)))]); err != nil {
		return written, err
	}
	for _, d := range r {
		if err := w.WriteByte(byte(d.Kind())); err != nil {
			return written, err
		}
		written++
		switch d.Kind() {
		case datum.KindNull:
		case datum.KindBool:
			b := byte(0)
			if d.Bool() {
				b = 1
			}
			if err := w.WriteByte(b); err != nil {
				return written, err
			}
			written++
		case datum.KindInt:
			if err := put(buf[:binary.PutVarint(buf[:], d.Int())]); err != nil {
				return written, err
			}
		case datum.KindFloat:
			binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(d.Float()))
			if err := put(buf[:8]); err != nil {
				return written, err
			}
		case datum.KindString:
			s := d.Str()
			if err := put(buf[:binary.PutUvarint(buf[:], uint64(len(s)))]); err != nil {
				return written, err
			}
			if _, err := w.WriteString(s); err != nil {
				return written, err
			}
			written += int64(len(s))
		default:
			return written, fmt.Errorf("exec: cannot spill datum kind %v", d.Kind())
		}
	}
	return written, nil
}

func decodeRow(r *bufio.Reader) (datum.Row, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	row := make(datum.Row, n)
	for i := range row {
		kb, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		switch datum.Kind(kb) {
		case datum.KindNull:
			row[i] = datum.Null
		case datum.KindBool:
			b, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			row[i] = datum.NewBool(b != 0)
		case datum.KindInt:
			v, err := binary.ReadVarint(r)
			if err != nil {
				return nil, err
			}
			row[i] = datum.NewInt(v)
		case datum.KindFloat:
			var buf [8]byte
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return nil, err
			}
			row[i] = datum.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
		case datum.KindString:
			ln, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, err
			}
			buf := make([]byte, ln)
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			row[i] = datum.NewString(string(buf))
		default:
			return nil, fmt.Errorf("exec: corrupt spill record: kind %d", kb)
		}
	}
	return row, nil
}

// discardAll removes a set of spill files.
func discardAll(ws []*spillWriter) {
	for _, w := range ws {
		w.discard()
	}
}

// --- external merge sort ---

// externalSortRows sorts rows by spec using budget-sized sorted runs spilled
// to temp files and an order-preserving k-way merge. Ties break on the
// original row index, so the output is exactly the serial stable sort.
func (c *Ctx) externalSortRows(rows []datum.Row, spec []datum.SortSpec) ([]datum.Row, error) {
	runBytes := c.Mem.Available() / 2
	if runBytes < minSpillChunk {
		runBytes = minSpillChunk
	}
	var maxRun int64

	var writers []*spillWriter
	defer func() { discardAll(writers) }()

	// Cut the input into runs of about runBytes, sort each by (spec, index),
	// and spill it in sorted order.
	lo := 0
	for lo < len(rows) {
		if err := c.canceled(); err != nil {
			return nil, err
		}
		hi := lo
		var sz int64
		for hi < len(rows) && (sz < runBytes || hi == lo) {
			sz += int64(rows[hi].Size()) + entryOverhead
			hi++
		}
		if sz > maxRun {
			maxRun = sz
		}
		run := make([]int, hi-lo)
		for i := range run {
			run[i] = lo + i
		}
		sort.Slice(run, func(a, b int) bool {
			c.Counters.Comparisons++
			cmp := datum.CompareRows(rows[run[a]], rows[run[b]], spec)
			if cmp != 0 {
				return cmp < 0
			}
			return run[a] < run[b]
		})
		w, err := c.newSpillWriter()
		if err != nil {
			return nil, err
		}
		writers = append(writers, w)
		for _, idx := range run {
			if err := w.writeRow(int64(idx), rows[idx]); err != nil {
				return nil, err
			}
		}
		if err := w.finish(); err != nil {
			return nil, err
		}
		lo = hi
	}
	// The sort's real working set is one run buffer (plus run heads during
	// the merge); report it without reserving — runs always complete.
	c.Mem.NotePeak(maxRun)
	c.noteMemBytes(maxRun)

	// K-way merge by (key, original index): each run is sorted by it, so a
	// linear tournament over the run heads reproduces the stable order.
	type head struct {
		tag int64
		row datum.Row
		sr  *spillReader
	}
	heads := make([]*head, 0, len(writers))
	for _, w := range writers {
		sr, err := w.reader()
		if err != nil {
			return nil, err
		}
		tag, row, ok, err := sr.next()
		if err != nil {
			return nil, err
		}
		if ok {
			heads = append(heads, &head{tag: tag, row: row, sr: sr})
		}
	}
	out := make([]datum.Row, 0, len(rows))
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			c.Counters.Comparisons++
			cmp := datum.CompareRows(heads[i].row, heads[best].row, spec)
			if cmp < 0 || (cmp == 0 && heads[i].tag < heads[best].tag) {
				best = i
			}
		}
		h := heads[best]
		out = append(out, h.row)
		if len(out)%MorselSize == 0 {
			if err := c.canceled(); err != nil {
				return nil, err
			}
		}
		tag, row, ok, err := h.sr.next()
		if err != nil {
			return nil, err
		}
		if ok {
			h.tag, h.row = tag, row
		} else {
			heads = append(heads[:best], heads[best+1:]...)
		}
	}
	return out, nil
}

// --- grace hash join ---

// maxRepartitionDepth bounds how many times a build partition that is still
// over its working set is split again.
const maxRepartitionDepth = 4

// graceHashJoin executes a hash join whose build side does not fit the
// budget: build rows are hash-partitioned to temp files, then each partition
// is loaded, built and probed on its own. A partition still too large to
// load is split again by a salted hash; only a partition whose rows all share
// one key — which no hash can split — fails, with the typed budget error.
// Each probe row's emissions are kept by its left index and concatenated in
// that order, which is exactly the in-memory join's emission order (all
// matches of one probe row live in one partition, because equal keys hash
// equally).
func (c *Ctx) graceHashJoin(t *physical.HashJoin, left, right []datum.Row, lOff, rOff []int) ([]datum.Row, error) {
	leftLayout, rightLayout := t.Left.Columns(), t.Right.Columns()
	g := &graceJoin{
		c: c, t: t, left: left, lOff: lOff, rOff: rOff,
		rightWidth: len(rightLayout),
		lHash:      make([]uint64, len(left)),
		e:          newEnv(append(append([]logical.ColumnID{}, leftLayout...), rightLayout...), nil),
		emitted:    make([][]datum.Row, len(left)),
	}
	needMatched := t.Kind == logical.FullOuterJoin

	// NULL build keys never match; they go straight to the full-outer
	// leftovers. NULL probe keys are handled in the merge below.
	ri := 0
	next := func() (int64, datum.Row, bool, error) {
		for ; ri < len(right); ri++ {
			if rr := right[ri]; !hasNullAt(rr, rOff) {
				ri++
				return int64(ri - 1), rr, true, nil
			} else if needMatched {
				g.leftovers = append(g.leftovers, taggedRow{int64(ri), rr})
			}
		}
		return 0, nil, false, nil
	}
	var probe []int32
	for li, lr := range left {
		if !hasNullAt(lr, lOff) {
			g.lHash[li] = lr.Hash(lOff)
			probe = append(probe, int32(li))
		}
	}
	parts, err := g.partition(next, probe, spillFanout(rowSetBytes(right), c.Mem.Available()), 0)
	defer parts.discard()
	if err != nil {
		return nil, err
	}
	for p := range parts.files {
		if err := g.joinPartition(parts, p, 0); err != nil {
			return nil, err
		}
	}

	// Merge: left rows in ascending index, each contributing its emissions;
	// NULL-key left rows are handled inline exactly as the in-memory join
	// would.
	var out []datum.Row
	for li, lr := range left {
		if !hasNullAt(lr, lOff) {
			out = append(out, g.emitted[li]...)
			continue
		}
		switch t.Kind {
		case logical.LeftOuterJoin, logical.FullOuterJoin:
			out = append(out, lr.Concat(nullRow(g.rightWidth)))
		case logical.AntiJoin:
			out = append(out, lr)
		}
	}
	if needMatched {
		// The serial join appends unmatched build rows in build order.
		sort.Slice(g.leftovers, func(a, b int) bool { return g.leftovers[a].tag < g.leftovers[b].tag })
		for _, lv := range g.leftovers {
			out = append(out, nullRow(len(leftLayout)).Concat(lv.row))
		}
	}
	return out, nil
}

// graceJoin is the state of one grace hash join.
type graceJoin struct {
	c          *Ctx
	t          *physical.HashJoin
	left       []datum.Row
	lHash      []uint64 // per left row: its key hash (rows with a NULL key are not probed)
	lOff, rOff []int
	rightWidth int
	e          *env
	emitted    [][]datum.Row // per left row: its output rows
	leftovers  []taggedRow   // FULL OUTER: build rows no probe row matched
}

// taggedRow is a row with its index in the build input.
type taggedRow struct {
	tag int64
	row datum.Row
}

// graceParts is one partitioning pass: per partition, the spilled build
// rows, their modeled bytes, whether they all share one key, and the probe
// rows (left indices, ascending) that hash to it.
type graceParts struct {
	files  []*spillWriter
	bytes  []int64
	single []bool
	probe  [][]int32
}

func (ps *graceParts) discard() { discardAll(ps.files) }

// partOf picks a key hash's partition. Pass 0 takes the hash modulo n; every
// further pass mixes in its salt first, so keys that shared a partition
// spread over the next pass's partitions.
func partOf(h uint64, salt, n int) int {
	if salt > 0 {
		h += uint64(salt) * 0x9e3779b97f4a7c15
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int(h % uint64(n))
}

// partition spills the build records next yields to n files by key hash
// (pass salt) and splits the probe rows the same way.
func (g *graceJoin) partition(next func() (int64, datum.Row, bool, error), probe []int32, n, salt int) (*graceParts, error) {
	ps := &graceParts{
		files:  make([]*spillWriter, n),
		bytes:  make([]int64, n),
		single: make([]bool, n),
		probe:  make([][]int32, n),
	}
	for p := range ps.files {
		w, err := g.c.newSpillWriter()
		if err != nil {
			return ps, err
		}
		ps.files[p] = w
	}
	firstKey := make([]datum.Row, n)
	for {
		tag, rr, ok, err := next()
		if err != nil {
			return ps, err
		}
		if !ok {
			break
		}
		g.c.Counters.HashOps++
		p := partOf(rr.Hash(g.rOff), salt, n)
		if err := ps.files[p].writeRow(tag, rr); err != nil {
			return ps, err
		}
		ps.bytes[p] += int64(rr.Size()) + entryOverhead
		switch {
		case firstKey[p] == nil:
			firstKey[p], ps.single[p] = rr, true
		case ps.single[p] && !datum.EqualOn(firstKey[p], rr, g.rOff, g.rOff):
			ps.single[p] = false
		}
	}
	for _, w := range ps.files {
		if err := w.finish(); err != nil {
			return ps, err
		}
	}
	for _, li := range probe {
		p := partOf(g.lHash[li], salt, n)
		ps.probe[p] = append(ps.probe[p], li)
	}
	return ps, nil
}

// joinPartition builds partition p of ps and probes it with the partition's
// probe rows. When the partition does not fit its working set it is split
// again, unless all its rows share one key or the passes are exhausted —
// then the join fails with the budget error.
func (g *graceJoin) joinPartition(ps *graceParts, p, salt int) error {
	c, t := g.c, g.t
	if err := c.canceled(); err != nil {
		return err
	}
	sr, err := ps.files[p].reader()
	if err != nil {
		return err
	}
	partBytes := ps.bytes[p]
	if err := c.Mem.GrowFloor("hash join build partition", partBytes, 0, spillFloor); err != nil {
		if !isBudgetErr(err) || ps.single[p] || salt >= maxRepartitionDepth {
			return err
		}
		sub, perr := g.partition(sr.next, ps.probe[p], spillFanout(partBytes, c.Mem.Available()), salt+1)
		defer sub.discard()
		if perr != nil {
			return perr
		}
		for q := range sub.files {
			if err := g.joinPartition(sub, q, salt+1); err != nil {
				return err
			}
		}
		return nil
	}
	defer c.Mem.Shrink(partBytes)
	c.noteMemBytes(partBytes)

	var tags []int64
	var rows []datum.Row
	for {
		tag, row, ok, err := sr.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		tags = append(tags, tag)
		rows = append(rows, row)
	}
	build := make(map[uint64][]int, len(rows))
	for i, rr := range rows {
		c.Counters.HashOps++
		h := rr.Hash(g.rOff)
		build[h] = append(build[h], i)
	}
	matched := make([]bool, len(rows))
	for k, li := range ps.probe[p] {
		if k%MorselSize == 0 {
			if err := c.canceled(); err != nil {
				return err
			}
		}
		c.Counters.HashOps++
		lr := g.left[li]
		var emitted []datum.Row
		lrMatched := false
		for _, ri := range build[g.lHash[li]] {
			rr := rows[ri]
			if !datum.EqualOn(lr, rr, g.lOff, g.rOff) {
				continue
			}
			c.Counters.RowsProcessed++
			g.e.row = lr.Concat(rr)
			ok, err := c.filterRow(t.ExtraOn, g.e)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			lrMatched = true
			matched[ri] = true
			switch t.Kind {
			case logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin:
				emitted = append(emitted, lr.Concat(rr))
			case logical.SemiJoin:
				emitted = append(emitted, lr)
			}
			if t.Kind == logical.SemiJoin || t.Kind == logical.AntiJoin {
				break
			}
		}
		switch t.Kind {
		case logical.LeftOuterJoin, logical.FullOuterJoin:
			if !lrMatched {
				emitted = append(emitted, lr.Concat(nullRow(g.rightWidth)))
			}
		case logical.AntiJoin:
			if !lrMatched {
				emitted = append(emitted, lr)
			}
		}
		g.emitted[li] = emitted
	}
	if t.Kind == logical.FullOuterJoin {
		for ri := range rows {
			if !matched[ri] {
				g.leftovers = append(g.leftovers, taggedRow{tags[ri], rows[ri]})
			}
		}
	}
	return nil
}

// --- spilling hash aggregation ---

// spillGroupBy executes hash aggregation whose group table does not fit the
// budget: input rows are hash-partitioned to temp files by group key (tagged
// with their original index), each partition is aggregated on its own, and
// the final groups are ordered by the index of their first input row — which
// is exactly the in-memory table's first-seen emission order.
func (c *Ctx) spillGroupBy(in []datum.Row, layout []logical.ColumnID, keyOff []int, groupCols []logical.ColumnID, aggs []logical.AggItem) ([]datum.Row, error) {
	nParts := spillFanout(rowSetBytes(in), c.Mem.Available())
	writers := make([]*spillWriter, nParts)
	defer func() { discardAll(writers) }()
	for p := range writers {
		w, err := c.newSpillWriter()
		if err != nil {
			return nil, err
		}
		writers[p] = w
	}
	key := make(datum.Row, len(keyOff))
	for i, r := range in {
		c.Counters.HashOps++
		for j, off := range keyOff {
			key[j] = r[off]
		}
		p := int(key.Hash(seqOffsets(len(key))) % uint64(nParts))
		if err := writers[p].writeRow(int64(i), r); err != nil {
			return nil, err
		}
	}
	for _, w := range writers {
		if err := w.finish(); err != nil {
			return nil, err
		}
	}

	type taggedGroup struct {
		tag int64
		row datum.Row
	}
	var groups []taggedGroup
	e := newEnv(layout, nil)
	ectx := c.evalCtx(e)
	for p := 0; p < nParts; p++ {
		if err := c.canceled(); err != nil {
			return nil, err
		}
		sr, err := writers[p].reader()
		if err != nil {
			return nil, err
		}
		gt := newGroupTable(len(groupCols), aggs)
		gt.mem = c.Mem
		gt.memOp = "hash aggregation partition"
		gt.floor = spillFloor
		var tags []int64
		for {
			tag, r, ok, err := sr.next()
			if err != nil {
				gt.release()
				return nil, err
			}
			if !ok {
				break
			}
			c.Counters.RowsProcessed++
			e.row = r
			k := make(datum.Row, len(keyOff))
			for j, off := range keyOff {
				k[j] = r[off]
			}
			args := make([]datum.D, len(aggs))
			for j, a := range aggs {
				if a.Arg == nil {
					args[j] = datum.NewInt(1)
					continue
				}
				v, err := logical.Eval(a.Arg, ectx)
				if err != nil {
					gt.release()
					return nil, err
				}
				args[j] = v
			}
			before := len(gt.order)
			if err := gt.add(k, k.Hash(seqOffsets(len(k))), args); err != nil {
				gt.release()
				return nil, err
			}
			if len(gt.order) > before {
				// Rows arrive in ascending tag order, so the creation tag is
				// the group's global first occurrence.
				tags = append(tags, tag)
			}
		}
		for i, row := range gt.rows() {
			groups = append(groups, taggedGroup{tags[i], row})
		}
		c.noteMemBytes(gt.charged)
		gt.release()
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].tag < groups[b].tag })
	out := make([]datum.Row, len(groups))
	for i, g := range groups {
		out[i] = g.row
	}
	c.noteMem(int64(len(out)))
	return out, nil
}

// isBudgetErr reports whether an operator failed on a memory reservation —
// the signal to degrade to its spilling implementation.
func isBudgetErr(err error) bool { return errors.Is(err, ErrMemoryBudgetExceeded) }
