package exec

// agg_null_test.go pins SQL NULL semantics for every aggregate: COUNT returns
// 0 over all-NULL or empty input while SUM/AVG/MIN/MAX return NULL, with and
// without DISTINCT, both for a bare accumulator and through a group table.

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

// TestGroupTableAllNullGroup drives the same semantics through a group
// table: one group fed only NULL arguments.
func TestGroupTableAllNullGroup(t *testing.T) {
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

	gt := newGroupTable(1, items)
	for i := 0; i < 4; i++ {
		gt.add(key, hash, argVals(datum.Null))
	}
	srows := gt.rows()
	if len(srows) != 1 {
		t.Fatalf("group count = %d, want 1", len(srows))
	}
	// Group key 7, COUNT(*)=4, both
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
