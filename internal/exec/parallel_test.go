package exec

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/storage"
)

// parFixture holds two tables big enough to cross the minParallelRows
// threshold, with small key domains (duplicates) and ~10% NULL keys so every
// join/group edge case is exercised.
type parFixture struct {
	store        *storage.Store
	md           *logical.Metadata
	r, s         *catalog.Table
	rCols, sCols []logical.ColumnID
	rScan, sScan *physical.TableScan
}

func newParFixture(t testing.TB, nR, nS int, seed int64) *parFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := &catalog.Table{Name: "R", Cols: []catalog.Column{
		{Name: "k", Kind: datum.KindInt},
		{Name: "v", Kind: datum.KindInt},
		{Name: "f", Kind: datum.KindFloat},
	}}
	s := &catalog.Table{Name: "S", Cols: []catalog.Column{
		{Name: "k", Kind: datum.KindInt},
		{Name: "w", Kind: datum.KindInt},
	}}
	store := storage.NewStore()
	rt, err := store.CreateTable(r)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	mkKey := func() datum.D {
		if rng.Intn(10) == 0 {
			return datum.Null
		}
		return datum.NewInt(int64(rng.Intn(40)))
	}
	rRows := make([]datum.Row, nR)
	for i := range rRows {
		rRows[i] = datum.Row{mkKey(), datum.NewInt(int64(i)), datum.NewFloat(float64(rng.Intn(1000)) / 4)}
	}
	if err := rt.InsertBatch(rRows); err != nil {
		t.Fatal(err)
	}
	sRows := make([]datum.Row, nS)
	for i := range sRows {
		sRows[i] = datum.Row{mkKey(), datum.NewInt(int64(i + 1_000_000))}
	}
	if err := st.InsertBatch(sRows); err != nil {
		t.Fatal(err)
	}
	md := logical.NewMetadata()
	rCols := md.AddTable(r, "r")
	sCols := md.AddTable(s, "s")
	return &parFixture{
		store: store, md: md, r: r, s: s, rCols: rCols, sCols: sCols,
		rScan: &physical.TableScan{Table: r, Binding: "r", Cols: rCols, ColOrds: []int{0, 1, 2}},
		sScan: &physical.TableScan{Table: s, Binding: "s", Cols: sCols, ColOrds: []int{0, 1}},
	}
}

// ctx returns an execution context at the given degree; parallel contexts own
// a pool released at test cleanup.
func (f *parFixture) ctx(t testing.TB, degree int) *Ctx {
	c := NewCtx(f.store, f.md)
	if degree > 1 {
		c.Parallelism = degree
		t.Cleanup(c.Close)
	}
	return c
}

// runBoth executes plan serially and at the given degrees, requiring the
// parallel runs to reproduce the serial rows — exactly when exact is set,
// as a multiset otherwise.
func runBoth(t *testing.T, f *parFixture, plan physical.Plan, exact bool, degrees ...int) (*Ctx, *Result) {
	t.Helper()
	serialCtx := f.ctx(t, 1)
	want, err := Run(plan, serialCtx)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for _, d := range degrees {
		pc := f.ctx(t, d)
		got, err := Run(plan, pc)
		if err != nil {
			t.Fatalf("degree %d: %v", d, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("degree %d: %d rows, serial %d", d, len(got.Rows), len(want.Rows))
		}
		if exact {
			for i := range want.Rows {
				if want.Rows[i].String() != got.Rows[i].String() {
					t.Fatalf("degree %d: row %d = %s, serial %s", d, i, got.Rows[i], want.Rows[i])
				}
			}
		} else if strings.Join(rowStrings(got), ";") != strings.Join(rowStrings(want), ";") {
			t.Fatalf("degree %d: multiset differs from serial", d)
		}
	}
	return serialCtx, want
}

func TestParallelScanFilterProjectMatchesSerial(t *testing.T) {
	f := newParFixture(t, 6000, 0, 1)
	k, v := f.rCols[0], f.rCols[1]
	plan := &physical.Project{
		Input: &physical.Filter{
			Input: f.rScan,
			Preds: []logical.Scalar{&logical.Cmp{Op: logical.CmpLt, L: &logical.Col{ID: k}, R: &logical.Const{Val: datum.NewInt(30)}}},
		},
		Items: []logical.ProjectItem{
			{ID: v, Expr: &logical.Col{ID: v}},
			{ID: k, Expr: &logical.Arith{Op: logical.ArithAdd, L: &logical.Col{ID: k}, R: &logical.Const{Val: datum.NewInt(7)}}},
		},
	}
	sc, _ := runBoth(t, f, plan, true, 2, 4, 8)

	// Counter parity: the same rows are processed regardless of degree.
	pc := f.ctx(t, 4)
	if _, err := Run(plan, pc); err != nil {
		t.Fatal(err)
	}
	if pc.Counters.RowsProcessed != sc.Counters.RowsProcessed {
		t.Errorf("RowsProcessed: parallel %d, serial %d", pc.Counters.RowsProcessed, sc.Counters.RowsProcessed)
	}
}

// Filters pushed into the scan node itself run in the scan's morsel loop.
func TestParallelTableScanWithPushedFilter(t *testing.T) {
	f := newParFixture(t, 5000, 0, 2)
	v := f.rCols[1]
	scan := &physical.TableScan{
		Table: f.r, Binding: "r", Cols: f.rCols, ColOrds: []int{0, 1, 2},
		Filter: []logical.Scalar{&logical.Cmp{Op: logical.CmpGe, L: &logical.Col{ID: v}, R: &logical.Const{Val: datum.NewInt(1000)}}},
	}
	runBoth(t, f, scan, true, 4)
}

func TestParallelHashJoinMatchesSerial(t *testing.T) {
	f := newParFixture(t, 4000, 2500, 3)
	rk, sk := f.rCols[0], f.sCols[0]
	for _, kind := range []logical.JoinKind{
		logical.InnerJoin, logical.LeftOuterJoin, logical.FullOuterJoin,
		logical.SemiJoin, logical.AntiJoin,
	} {
		plan := &physical.HashJoin{
			Kind: kind, Left: f.rScan, Right: f.sScan,
			LeftKeys: []logical.ColumnID{rk}, RightKeys: []logical.ColumnID{sk},
		}
		sc, want := runBoth(t, f, plan, true, 2, 8)
		if len(want.Rows) == 0 {
			t.Fatalf("kind %v: degenerate fixture, no rows", kind)
		}
		pc := f.ctx(t, 4)
		if _, err := Run(plan, pc); err != nil {
			t.Fatal(err)
		}
		if pc.Counters.HashOps != sc.Counters.HashOps {
			t.Errorf("kind %v HashOps: parallel %d, serial %d", kind, pc.Counters.HashOps, sc.Counters.HashOps)
		}
	}
}

func TestParallelHashJoinExtraPredicate(t *testing.T) {
	f := newParFixture(t, 4000, 2500, 4)
	rk, rv, sk, sw := f.rCols[0], f.rCols[1], f.sCols[0], f.sCols[1]
	plan := &physical.HashJoin{
		Kind: logical.InnerJoin, Left: f.rScan, Right: f.sScan,
		LeftKeys: []logical.ColumnID{rk}, RightKeys: []logical.ColumnID{sk},
		ExtraOn: []logical.Scalar{&logical.Cmp{
			Op: logical.CmpLt,
			L:  &logical.Arith{Op: logical.ArithAdd, L: &logical.Col{ID: rv}, R: &logical.Const{Val: datum.NewInt(1_000_000)}},
			R:  &logical.Col{ID: sw},
		}},
	}
	runBoth(t, f, plan, true, 4)
}

func TestParallelNLJoinMatchesSerial(t *testing.T) {
	f := newParFixture(t, 3000, 40, 5)
	rk, sk := f.rCols[0], f.sCols[0]
	on := []logical.Scalar{&logical.Cmp{Op: logical.CmpEq, L: &logical.Col{ID: rk}, R: &logical.Col{ID: sk}}}
	for _, kind := range []logical.JoinKind{logical.InnerJoin, logical.FullOuterJoin, logical.AntiJoin} {
		plan := &physical.NLJoin{Kind: kind, Left: f.rScan, Right: f.sScan, On: on}
		runBoth(t, f, plan, true, 4)
	}
}

func TestParallelHashAggMatchesSerial(t *testing.T) {
	f := newParFixture(t, 6000, 0, 6)
	k, v, fl := f.rCols[0], f.rCols[1], f.rCols[2]
	aggs := []logical.AggItem{
		{ID: 100, Fn: logical.AggCount},
		{ID: 101, Fn: logical.AggSum, Arg: &logical.Col{ID: v}},
		{ID: 102, Fn: logical.AggAvg, Arg: &logical.Col{ID: fl}},
		{ID: 103, Fn: logical.AggMin, Arg: &logical.Col{ID: v}},
		{ID: 104, Fn: logical.AggMax, Arg: &logical.Col{ID: fl}},
		{ID: 105, Fn: logical.AggCount, Arg: &logical.Col{ID: fl}, Distinct: true},
	}
	plan := &physical.HashGroupBy{Input: f.rScan, GroupCols: []logical.ColumnID{k}, Aggs: aggs}
	// Groups are emitted in first-appearance order at every degree.
	sc, want := runBoth(t, f, plan, true, 2, 4, 8)
	if len(want.Rows) != 41 { // 40 key values + NULL group
		t.Fatalf("groups = %d, want 41", len(want.Rows))
	}
	pc := f.ctx(t, 4)
	if _, err := Run(plan, pc); err != nil {
		t.Fatal(err)
	}
	if pc.Counters.HashOps != sc.Counters.HashOps || pc.Counters.RowsProcessed != sc.Counters.RowsProcessed {
		t.Errorf("counters: parallel %+v, serial %+v", pc.Counters, sc.Counters)
	}
}

// Scalar aggregation (no group columns) must produce its single row at any
// degree, including the empty-input global group.
func TestParallelScalarAggMatchesSerial(t *testing.T) {
	f := newParFixture(t, 4000, 0, 7)
	v := f.rCols[1]
	aggs := []logical.AggItem{
		{ID: 100, Fn: logical.AggCount},
		{ID: 101, Fn: logical.AggSum, Arg: &logical.Col{ID: v}},
	}
	plan := &physical.HashGroupBy{Input: f.rScan, Aggs: aggs}
	runBoth(t, f, plan, true, 4)
}

func TestParallelSortIsStable(t *testing.T) {
	// Key domain of 40 over 6000 rows → long runs of ties; stability demands
	// ties keep their input (insertion) order, which v encodes.
	f := newParFixture(t, 6000, 0, 8)
	k := f.rCols[0]
	plan := &physical.Sort{Input: f.rScan, By: logical.Ordering{{Col: k, Desc: true}}}
	runBoth(t, f, plan, true, 2, 4, 8)
}

func TestParallelExchangeHashPartition(t *testing.T) {
	f := newParFixture(t, 6000, 0, 9)
	k := f.rCols[0]
	// Hash exchange without a merge ordering: row multiset is preserved, and
	// within each partition the input order is (verified via the serial run
	// being a pass-through).
	ex := &physical.Exchange{Input: f.rScan, Degree: 4, PartitionCols: []logical.ColumnID{k}}
	sc, _ := runBoth(t, f, ex, false, 2, 4)
	if sc.Counters.ExchangedRows != 6000 {
		t.Errorf("ExchangedRows = %d, want 6000", sc.Counters.ExchangedRows)
	}
}

func TestParallelExchangeMergePreservesOrder(t *testing.T) {
	f := newParFixture(t, 6000, 0, 10)
	k, v := f.rCols[0], f.rCols[1]
	// Sorted input through a hash exchange with MergeOrdering: the output
	// must be the exact sorted order, i.e. the exchange is order-preserving.
	ex := &physical.Exchange{
		Input:         &physical.Sort{Input: f.rScan, By: logical.Ordering{{Col: k}}},
		Degree:        4,
		PartitionCols: []logical.ColumnID{v},
		MergeOrdering: logical.Ordering{{Col: k}},
	}
	runBoth(t, f, ex, true, 2, 4, 8)
}

func TestParallelExchangeRoundRobin(t *testing.T) {
	f := newParFixture(t, 5000, 0, 11)
	ex := &physical.Exchange{Input: f.rScan, Degree: 3}
	runBoth(t, f, ex, false, 4)
}

func TestExchangeMergeColumnMissing(t *testing.T) {
	f := newParFixture(t, 5000, 0, 12)
	ex := &physical.Exchange{
		Input:         f.rScan,
		Degree:        4,
		MergeOrdering: logical.Ordering{{Col: 9999}},
	}
	pc := f.ctx(t, 4)
	if _, err := Run(ex, pc); err == nil || !strings.Contains(err.Error(), "merge column") {
		t.Fatalf("want merge-column error, got %v", err)
	}
}

// A predicate that panics in a worker must surface as an error, not kill the
// process.
func TestParallelWorkerPanicBecomesError(t *testing.T) {
	f := newParFixture(t, 5000, 0, 13)
	k := f.rCols[0]
	boom := &logical.UDPRef{
		Name: "boom", Args: []logical.Scalar{&logical.Col{ID: k}},
		PerTupleCost: 1, Selectivity: 0.5,
		EvalFn: func([]datum.D) bool { panic("kaboom") },
	}
	plan := &physical.Filter{Input: f.rScan, Preds: []logical.Scalar{boom}}
	pc := f.ctx(t, 4)
	if _, err := Run(plan, pc); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("want panic-derived error, got %v", err)
	}
}

func TestSortResultMissingColumnError(t *testing.T) {
	f := newParFixture(t, 10, 0, 14)
	c := f.ctx(t, 1)
	res := &Result{Cols: f.rCols, Rows: []datum.Row{{datum.NewInt(1), datum.NewInt(2), datum.NewFloat(3)}}}
	err := c.sortResult(res, logical.Ordering{{Col: 9999}})
	if err == nil || !strings.Contains(err.Error(), "ORDER BY column") {
		t.Fatalf("want missing-column error, got %v", err)
	}
}

// The pool is shared across queries of one context and survives reuse.
func TestPoolReuseAcrossRuns(t *testing.T) {
	f := newParFixture(t, 4000, 2500, 15)
	pc := f.ctx(t, 4)
	rk, sk := f.rCols[0], f.sCols[0]
	plan := &physical.HashJoin{
		Kind: logical.InnerJoin, Left: f.rScan, Right: f.sScan,
		LeftKeys: []logical.ColumnID{rk}, RightKeys: []logical.ColumnID{sk},
	}
	var n int
	for i := 0; i < 3; i++ {
		res, err := Run(plan, pc)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			n = len(res.Rows)
		} else if len(res.Rows) != n {
			t.Fatalf("run %d: %d rows, first run %d", i, len(res.Rows), n)
		}
	}
}
