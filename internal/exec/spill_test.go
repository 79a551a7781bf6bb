package exec

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// spillCtx is a minimal context for driving the spill machinery directly.
func spillCtx(t *testing.T, budget int64) *Ctx {
	t.Helper()
	c := NewCtx(nil, nil)
	c.Mem = NewMemAccount(budget)
	c.TempDir = t.TempDir()
	return c
}

func randSpillRows(rng *rand.Rand, n int) []datum.Row {
	strs := []string{"ant", "bee", "cat", "dog", "elk", ""}
	rows := make([]datum.Row, n)
	for i := range rows {
		var key datum.D
		switch rng.Intn(10) {
		case 0:
			key = datum.Null
		case 1:
			key = datum.NewString(strs[rng.Intn(len(strs))])
		default:
			key = datum.NewInt(int64(rng.Intn(50)))
		}
		rows[i] = datum.Row{
			key,
			datum.NewInt(int64(i)),
			datum.NewFloat(float64(rng.Intn(100000))/7 - 5000),
		}
	}
	return rows
}

func TestSpillFileRoundTripIsBitExact(t *testing.T) {
	c := spillCtx(t, 0)
	rows := []datum.Row{
		{datum.Null, datum.NewBool(true), datum.NewBool(false)},
		{datum.NewInt(-1 << 62), datum.NewInt(0), datum.NewInt(1<<62 - 1)},
		{datum.NewFloat(0.1), datum.NewFloat(-0.0), datum.NewFloat(math.MaxFloat64)},
		{datum.NewFloat(math.SmallestNonzeroFloat64), datum.NewString(""), datum.NewString("héllo\x00world")},
		{},
	}
	w, err := c.newSpillWriter()
	if err != nil {
		t.Fatal(err)
	}
	defer w.discard()
	for i, r := range rows {
		if err := w.writeRow(int64(i*7), r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	sr, err := w.reader()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range rows {
		tag, got, ok, err := sr.next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if tag != int64(i*7) {
			t.Fatalf("record %d tag = %d", i, tag)
		}
		if len(got) != len(want) {
			t.Fatalf("record %d width %d != %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].Kind() != want[j].Kind() {
				t.Fatalf("record %d col %d kind %v != %v", i, j, got[j].Kind(), want[j].Kind())
			}
			if want[j].Kind() == datum.KindFloat {
				if math.Float64bits(got[j].Float()) != math.Float64bits(want[j].Float()) {
					t.Fatalf("record %d col %d float bits differ", i, j)
				}
			} else if !want[j].IsNull() && datum.Compare(got[j], want[j]) != 0 {
				t.Fatalf("record %d col %d = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
	if _, _, ok, _ := sr.next(); ok {
		t.Fatal("reader returned extra record")
	}
	if c.Counters.Spills != 1 || c.Counters.SpillBytes != w.bytes {
		t.Fatalf("spill counters = %d/%d", c.Counters.Spills, c.Counters.SpillBytes)
	}
}

func TestSpillFanoutBounds(t *testing.T) {
	cases := []struct {
		total, avail int64
		want         int
	}{
		{0, 1 << 30, 2},        // at least two partitions
		{1 << 30, 1 << 20, 64}, // capped at the max fanout
		{1 << 20, 1 << 20, 2},  // total/(avail/2) = 2
		{200 << 10, 10, 4},     // tiny budget: floor of 64 KiB chunks
	}
	for _, tc := range cases {
		if got := spillFanout(tc.total, tc.avail); got != tc.want {
			t.Errorf("spillFanout(%d, %d) = %d, want %d", tc.total, tc.avail, got, tc.want)
		}
	}
}

// TestExternalSortMatchesStableSort: the degraded sort must reproduce the
// in-memory stable sort exactly — same keys, same tie order — at several
// budgets so both single-run and many-run merges are covered.
func TestExternalSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rows := randSpillRows(rng, 5000)
	spec := []datum.SortSpec{{Col: 0}, {Col: 2, Desc: true}}
	want := append([]datum.Row(nil), rows...)
	sort.SliceStable(want, func(i, j int) bool {
		return datum.CompareRows(want[i], want[j], spec) < 0
	})
	for _, budget := range []int64{1, 4 << 10, 1 << 20} {
		c := spillCtx(t, budget)
		got, err := c.externalSortRows(append([]datum.Row(nil), rows...), spec)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if len(got) != len(want) {
			t.Fatalf("budget %d: %d rows, want %d", budget, len(got), len(want))
		}
		for i := range want {
			if got[i].String() != want[i].String() {
				t.Fatalf("budget %d: row %d = %s, want %s", budget, i, got[i], want[i])
			}
		}
		if c.Counters.Spills == 0 {
			t.Fatalf("budget %d: external sort wrote no runs", budget)
		}
		if c.Mem.Used() != 0 {
			t.Fatalf("budget %d: leaked %d reserved bytes", budget, c.Mem.Used())
		}
	}
}

// buildHashJoinFixture returns a hash-join node over two VALUES inputs
// holding left (probe) and right (build), plus the key offsets.
func buildHashJoinFixture(kind logical.JoinKind, left, right []datum.Row) (*physical.HashJoin, []int, []int) {
	values := func(cols []logical.ColumnID, rows []datum.Row) *physical.ValuesOp {
		v := &physical.ValuesOp{Cols: cols}
		for _, r := range rows {
			row := make([]logical.Scalar, len(r))
			for i, d := range r {
				row[i] = &logical.Const{Val: d}
			}
			v.Rows = append(v.Rows, row)
		}
		return v
	}
	lCols := []logical.ColumnID{1, 2, 3}
	rCols := []logical.ColumnID{4, 5, 6}
	hj := &physical.HashJoin{
		Kind: kind, Left: values(lCols, left), Right: values(rCols, right),
		LeftKeys: lCols[:1], RightKeys: rCols[:1],
	}
	return hj, []int{0}, []int{0}
}

// TestGraceHashJoinMatchesInMemory: for every join kind, the grace join's
// output must equal the in-memory hash join's rows in the identical order.
func TestGraceHashJoinMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	left := randSpillRows(rng, 3000)
	right := randSpillRows(rng, 2500)
	kinds := []logical.JoinKind{
		logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin,
		logical.SemiJoin, logical.AntiJoin,
	}
	for _, kind := range kinds {
		hj, lOff, rOff := buildHashJoinFixture(kind, left, right)
		// In-memory truth: the hash join operator with an unlimited budget.
		res, err := Run(hj, NewCtx(nil, nil))
		if err != nil {
			t.Fatalf("%v in-memory: %v", kind, err)
		}
		want := res.Rows
		c := spillCtx(t, 1) // any build fails -> grace join, floor keeps partitions alive
		got, err := c.graceHashJoin(hj, left, right, lOff, rOff)
		if err != nil {
			t.Fatalf("%v grace: %v", kind, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d rows, want %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].String() != want[i].String() {
				t.Fatalf("%v: row %d = %s, want %s", kind, i, got[i], want[i])
			}
		}
		if c.Counters.Spills == 0 {
			t.Fatalf("%v: grace join spilled nothing", kind)
		}
		if c.Mem.Used() != 0 {
			t.Fatalf("%v: leaked %d reserved bytes", kind, c.Mem.Used())
		}
	}
}

// TestGraceHashJoinSkewFailsTyped: a build side whose keys are all equal
// collapses into one partition; when that partition exceeds both the minimal
// working set and the budget, the query fails with the typed budget error
// instead of thrashing.
func TestGraceHashJoinSkewFailsTyped(t *testing.T) {
	// ~100 bytes/row x 3000 rows ≈ 300 KB in one partition (> spillFloor).
	right := make([]datum.Row, 3000)
	for i := range right {
		right[i] = datum.Row{datum.NewInt(7), datum.NewString("padding-padding-padding-padding-padding-padding")}
	}
	left := []datum.Row{{datum.NewInt(7), datum.NewInt(1), datum.NewInt(2)}}
	lCols := []logical.ColumnID{1, 2, 3}
	rCols := []logical.ColumnID{4, 5}
	hj := &physical.HashJoin{
		Kind: logical.InnerJoin,
		Left: &physical.ValuesOp{Cols: lCols}, Right: &physical.ValuesOp{Cols: rCols},
		LeftKeys: lCols[:1], RightKeys: rCols[:1],
	}
	c := spillCtx(t, 32<<10)
	_, err := c.graceHashJoin(hj, left, right, []int{0}, []int{0})
	if err == nil {
		t.Fatal("skewed grace join under tiny budget succeeded")
	}
	if !errors.Is(err, ErrMemoryBudgetExceeded) {
		t.Fatalf("error %v does not match ErrMemoryBudgetExceeded", err)
	}
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("error %T is not typed", err)
	}
	if be.Op != "hash join build partition" {
		t.Fatalf("error op = %q", be.Op)
	}
	if c.Mem.Used() != 0 {
		t.Fatalf("failed join leaked %d reserved bytes", c.Mem.Used())
	}
}

// TestSpillGroupByMatchesInMemory: partitioned aggregation must reproduce the
// in-memory group table's rows in first-seen order, bit-identical floats.
func TestSpillGroupByMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randSpillRows(rng, 4000)
	layout := []logical.ColumnID{1, 2, 3}
	groupCols := layout[:1]
	aggs := []logical.AggItem{
		{ID: 10, Fn: logical.AggCount},
		{ID: 11, Fn: logical.AggSum, Arg: &logical.Col{ID: 3}},
		{ID: 12, Fn: logical.AggMin, Arg: &logical.Col{ID: 2}},
	}
	truth := NewCtx(nil, nil)
	want, err := truth.memGroupBy(in, layout, []int{0}, groupCols, aggs)
	if err != nil {
		t.Fatal(err)
	}
	c := spillCtx(t, 1)
	got, err := c.spillGroupBy(in, layout, []int{0}, groupCols, aggs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d groups, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i].String() {
			t.Fatalf("group %d = %s, want %s", i, got[i], want[i])
		}
	}
	if c.Counters.Spills == 0 {
		t.Fatal("spill aggregation spilled nothing")
	}
	if c.Mem.Used() != 0 {
		t.Fatalf("leaked %d reserved bytes", c.Mem.Used())
	}
}

// memGroupBy is the in-memory truth: an uncharged group table fed serially.
func (c *Ctx) memGroupBy(in []datum.Row, layout []logical.ColumnID, keyOff []int, groupCols []logical.ColumnID, aggs []logical.AggItem) ([]datum.Row, error) {
	gt := newGroupTable(len(groupCols), aggs)
	e := newEnv(layout, nil)
	ectx := c.evalCtx(e)
	for _, r := range in {
		e.row = r
		key := make(datum.Row, len(keyOff))
		for i, off := range keyOff {
			key[i] = r[off]
		}
		args := make([]datum.D, len(aggs))
		for i, a := range aggs {
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
	return gt.rows(), nil
}
