package exec

// agg_null_test.go pins SQL NULL semantics for every aggregate across every
// execution path: COUNT returns 0 over all-NULL or empty input while
// SUM/AVG/MIN/MAX return NULL — identically whether the accumulator sees rows
// serially (add), is a parallel thread-local partial, or is the merge target
// of partials at the two-phase barrier (merge), with and without DISTINCT.

import (
	"testing"

	"repro/internal/datum"
	"repro/internal/logical"
)

func aggItems() []logical.AggItem {
	arg := logical.Scalar(&logical.Col{})
	return []logical.AggItem{
		{Fn: logical.AggCount},           // COUNT(*)
		{Fn: logical.AggCount, Arg: arg}, // COUNT(x)
		{Fn: logical.AggSum, Arg: arg},
		{Fn: logical.AggAvg, Arg: arg},
		{Fn: logical.AggMin, Arg: arg},
		{Fn: logical.AggMax, Arg: arg},
		{Fn: logical.AggCount, Arg: arg, Distinct: true},
		{Fn: logical.AggSum, Arg: arg, Distinct: true},
		{Fn: logical.AggAvg, Arg: arg, Distinct: true},
	}
}

// wantOverNulls is the required result per aggregate when every input is NULL
// (or there is no input at all). COUNT(*) over n all-NULL rows counts n, so it
// is checked separately.
func wantNullResult(item logical.AggItem) datum.D {
	if item.Fn == logical.AggCount && item.Arg != nil {
		return datum.NewInt(0)
	}
	return datum.Null
}

func TestAggNullSerialAdd(t *testing.T) {
	for _, item := range aggItems() {
		if item.Fn == logical.AggCount && item.Arg == nil {
			continue // COUNT(*) counts rows regardless of NULLs
		}
		acc := newAgg(item)
		for i := 0; i < 5; i++ {
			acc.add(datum.Null)
		}
		if got, want := acc.result(), wantNullResult(item); !datum.Equal(got, want) && !(got.IsNull() && want.IsNull()) {
			t.Errorf("%v over all-NULL via add: got %v want %v", item, got, want)
		}
	}
}

func TestAggNullEmptyAccumulator(t *testing.T) {
	for _, item := range aggItems() {
		acc := newAgg(item)
		got := acc.result()
		want := wantNullResult(item)
		if item.Fn == logical.AggCount && item.Arg == nil {
			want = datum.NewInt(0)
		}
		if !datum.Equal(got, want) && !(got.IsNull() && want.IsNull()) {
			t.Errorf("%v over empty input: got %v want %v", item, got, want)
		}
	}
}

// TestAggNullMergePaths: merging (a) two all-NULL partials, (b) an all-NULL
// partial into an empty one, and (c) an empty partial into one holding real
// values must behave exactly like the serial path.
func TestAggNullMergePaths(t *testing.T) {
	for _, item := range aggItems() {
		if item.Fn == logical.AggCount && item.Arg == nil {
			continue
		}
		// (a) + (b): all combinations of {empty, all-NULL} partials → NULL/0.
		for _, leftNulls := range []int{0, 3} {
			for _, rightNulls := range []int{0, 3} {
				left, right := newAgg(item), newAgg(item)
				for i := 0; i < leftNulls; i++ {
					left.add(datum.Null)
				}
				for i := 0; i < rightNulls; i++ {
					right.add(datum.Null)
				}
				left.merge(right)
				got, want := left.result(), wantNullResult(item)
				if !datum.Equal(got, want) && !(got.IsNull() && want.IsNull()) {
					t.Errorf("%v merge (%d nulls + %d nulls): got %v want %v",
						item, leftNulls, rightNulls, got, want)
				}
			}
		}
		// (c) an empty/all-NULL partial merged into real values is a no-op.
		withVals, empty := newAgg(item), newAgg(item)
		serial := newAgg(item)
		for _, v := range []int64{4, 2, 9} {
			withVals.add(datum.NewInt(v))
			serial.add(datum.NewInt(v))
		}
		empty.add(datum.Null)
		withVals.merge(empty)
		if got, want := withVals.result(), serial.result(); !datum.Equal(got, want) {
			t.Errorf("%v merge of all-NULL partial changed result: got %v want %v", item, got, want)
		}
	}
}

// TestGroupTableNullMerge drives the same semantics through groupTable's
// two-phase mergeFrom.
func TestGroupTableNullMerge(t *testing.T) {
	items := aggItems()
	argVals := func(v datum.D) []datum.D {
		vals := make([]datum.D, len(items))
		for i, it := range items {
			if it.Fn == logical.AggCount && it.Arg == nil {
				vals[i] = datum.NewInt(1) // COUNT(*) placeholder
			} else {
				vals[i] = v
			}
		}
		return vals
	}
	key := datum.Row{datum.NewInt(7)}
	hash := key.Hash(seqOffsets(1))

	// Serial: 4 NULL rows in one table.
	serial := newGroupTable(1, items)
	for i := 0; i < 4; i++ {
		serial.add(key, hash, argVals(datum.Null))
	}
	// Parallel: the same 4 NULL rows split 3/1 across partials, merged.
	p1, p2 := newGroupTable(1, items), newGroupTable(1, items)
	for i := 0; i < 3; i++ {
		p1.add(key, hash, argVals(datum.Null))
	}
	p2.add(key, hash, argVals(datum.Null))
	final := newGroupTable(1, items)
	final.mergeFrom(p1)
	final.mergeFrom(p2)

	srows, frows := serial.rows(), final.rows()
	if len(srows) != 1 || len(frows) != 1 {
		t.Fatalf("group counts differ: serial=%d merged=%d", len(srows), len(frows))
	}
	for c := range srows[0] {
		s, f := srows[0][c], frows[0][c]
		if s.IsNull() != f.IsNull() || (!s.IsNull() && !datum.Equal(s, f)) {
			t.Errorf("column %d differs: serial=%v merged=%v", c, s, f)
		}
	}
	// And the values themselves are right: group key 7, COUNT(*)=4, both
	// COUNT(x) forms 0, every SUM/AVG/MIN/MAX NULL. Layout mirrors aggItems:
	// key, COUNT(*), COUNT(x), SUM, AVG, MIN, MAX, COUNT(DISTINCT),
	// SUM(DISTINCT), AVG(DISTINCT).
	want := []string{"7", "4", "0", "NULL", "NULL", "NULL", "NULL", "0", "NULL", "NULL"}
	for i, w := range want {
		got := srows[0][i].String()
		if srows[0][i].IsNull() {
			got = "NULL"
		}
		if got != w {
			t.Errorf("column %d = %s, want %s", i, got, w)
		}
	}
}
