package exec

// hashtable_test.go checks the hash table shared by hash join and hash
// aggregation against datum.Equal: a row belongs to the first earlier group
// whose key hashes the same and compares Equal, and a probe row matches, in
// build order, every build row whose key hashes the same and compares Equal.
// The cases are the ones where typed comparison could drift from the boxed
// semantics: INT against FLOAT, NULLs, NaN and -0.0, dictionary codes against
// plain strings and against another dictionary, and full-hash collisions.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/datum"
	"repro/internal/logical"
	"repro/internal/physical"
)

// keyHashes hashes every row of the key vectors like the operators do.
func keyHashes(vecs []*datum.Vec) []uint64 {
	n := vecs[0].Len()
	hs := make([]uint64, n)
	hashKeys(vecs, seqOffsets(len(vecs)), identSel(n), hs)
	return hs
}

// rowKeysEqual is datum.Equal over every key column (NULL = NULL).
func rowKeysEqual(a []*datum.Vec, i int, b []*datum.Vec, j int) bool {
	for c := range a {
		if !datum.Equal(a[c].D(i), b[c].D(j)) {
			return false
		}
	}
	return true
}

// tableGroups assigns group ids the way hash aggregation does.
func tableGroups(t *testing.T, vecs []*datum.Vec, hs []uint64) []int32 {
	t.Helper()
	off := seqOffsets(len(vecs))
	in := &Batch{Vecs: vecs, n: len(hs)}
	g := &aggPart{ht: newHashTable(0), eq: newKeyEq(vecs, off, vecs, off), keyOff: off, gids: make([]int32, len(hs))}
	if err := g.add(NewCtx(nil, nil), in, nil, identSel(len(hs)), hs); err != nil {
		t.Fatal(err)
	}
	return g.gids
}

// refGroups is the grouping datum.Equal defines.
func refGroups(vecs []*datum.Vec, hs []uint64) []int32 {
	var firsts []int
	ids := make([]int32, len(hs))
	for i := range hs {
		ids[i] = -1
		for g, f := range firsts {
			if hs[f] == hs[i] && rowKeysEqual(vecs, f, vecs, i) {
				ids[i] = int32(g)
				break
			}
		}
		if ids[i] < 0 {
			ids[i] = int32(len(firsts))
			firsts = append(firsts, i)
		}
	}
	return ids
}

// tableMatches lists, per probe row, the build rows the join table returns.
func tableMatches(probe, build []*datum.Vec, hp, hb []uint64) [][]int32 {
	off := seqOffsets(len(build))
	bt := &Batch{Vecs: build, n: len(hb)}
	j := NewCtx(nil, nil).buildJoinTable(bt, off, identSel(len(hb)), hb)
	eq := newKeyEq(probe, off, build, off)
	out := make([][]int32, len(hp))
	for li := range hp {
		if vecNullAt(probe, off, li) {
			continue
		}
		for ri := j.first(hp[li], eq, int32(li)); ri >= 0; ri = j.next[ri] {
			out[li] = append(out[li], ri)
		}
	}
	return out
}

// refMatches is the join datum.Equal defines; NULL keys match nothing.
func refMatches(probe, build []*datum.Vec, hp, hb []uint64) [][]int32 {
	off := seqOffsets(len(build))
	out := make([][]int32, len(hp))
	for li := range hp {
		if vecNullAt(probe, off, li) {
			continue
		}
		for ri := range hb {
			if !vecNullAt(build, off, ri) && hp[li] == hb[ri] && rowKeysEqual(probe, li, build, ri) {
				out[li] = append(out[li], int32(ri))
			}
		}
	}
	return out
}

func checkGroups(t *testing.T, label string, vecs []*datum.Vec, hs []uint64) []int32 {
	t.Helper()
	if hs == nil {
		hs = keyHashes(vecs)
	}
	got, want := tableGroups(t, vecs, hs), refGroups(vecs, hs)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: group ids %v, datum.Equal gives %v", label, got, want)
	}
	return got
}

func checkMatches(t *testing.T, label string, probe, build []*datum.Vec, hp, hb []uint64) [][]int32 {
	t.Helper()
	if hp == nil {
		hp, hb = keyHashes(probe), keyHashes(build)
	}
	got, want := tableMatches(probe, build, hp, hb), refMatches(probe, build, hp, hb)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: matches %v, datum.Equal gives %v", label, got, want)
	}
	return got
}

func ints(vs ...int64) *datum.Vec {
	ds := make([]datum.D, len(vs))
	for i, v := range vs {
		ds[i] = datum.NewInt(v)
	}
	return mkVec(ds...)
}

func floats(vs ...float64) *datum.Vec {
	ds := make([]datum.D, len(vs))
	for i, v := range vs {
		ds[i] = datum.NewFloat(v)
	}
	return mkVec(ds...)
}

func strs(vs ...string) *datum.Vec {
	ds := make([]datum.D, len(vs))
	for i, v := range vs {
		ds[i] = datum.NewString(v)
	}
	return mkVec(ds...)
}

// dictVec encodes vals against dict (every value must be in it); the rows
// at nullAt are NULL.
func dictVec(dict *datum.StrDict, vals []string, nullAt ...int) *datum.Vec {
	codes := make([]int64, len(vals))
	var nulls datum.Bitmap
	for i, s := range vals {
		code, ok := dict.Code(s)
		if !ok {
			panic("value not in dictionary: " + s)
		}
		codes[i] = code
	}
	for _, i := range nullAt {
		codes[i] = 0
		nulls.Set(i)
	}
	return datum.NewDictVec(len(vals), codes, dict, nulls, len(nullAt))
}

func TestHashTableIntFloat(t *testing.T) {
	boxed := mkBoxed(datum.NewInt(1), datum.NewFloat(1.0), datum.NewInt(2), datum.NewFloat(2.5),
		datum.Null, datum.NewInt(1), datum.NewFloat(2))
	if !boxed.Boxed() {
		t.Fatal("fixture is not boxed")
	}
	got := checkGroups(t, "boxed INT/FLOAT", []*datum.Vec{boxed}, nil)
	if got[0] != got[1] || got[2] != got[6] || got[0] == got[2] {
		t.Fatalf("1 and 1.0 (and 2 and 2.0) must share a group: %v", got)
	}
	intVec, floatVec := ints(1, 2, 3, 1), floats(1.0, 2.5, 1.0, 3.0)
	m := checkMatches(t, "INT probe, FLOAT build", []*datum.Vec{intVec}, []*datum.Vec{floatVec}, nil, nil)
	if fmt.Sprint(m[0]) != "[0 2]" {
		t.Fatalf("1 must match both 1.0 build rows in build order, got %v", m[0])
	}
	checkMatches(t, "FLOAT probe, INT build", []*datum.Vec{floatVec}, []*datum.Vec{intVec}, nil, nil)
	checkMatches(t, "boxed probe, INT build", []*datum.Vec{boxed}, []*datum.Vec{intVec}, nil, nil)
	checkMatches(t, "INT probe, boxed build", []*datum.Vec{intVec}, []*datum.Vec{boxed}, nil, nil)
	checkMatches(t, "INT probe, BOOL build", []*datum.Vec{ints(0, 1)},
		[]*datum.Vec{mkVec(datum.NewBool(false), datum.NewBool(true))}, nil, nil)
}

func TestHashTableNullKeys(t *testing.T) {
	k := mkVec(datum.Null, datum.NewInt(1), datum.Null, datum.NewInt(2), datum.Null)
	g := checkGroups(t, "NULL group keys", []*datum.Vec{k}, nil)
	if g[0] != 0 || g[2] != 0 || g[4] != 0 {
		t.Fatalf("NULL keys must form one group: %v", g)
	}
	two := []*datum.Vec{mkVec(datum.Null, datum.NewInt(1), datum.Null, datum.NewInt(1)), mkVec(datum.NewString("a"), datum.Null, datum.NewString("a"), datum.Null)}
	g = checkGroups(t, "NULL in a two-column key", two, nil)
	if g[0] != g[2] || g[1] != g[3] || g[0] == g[1] {
		t.Fatalf("two-column NULL keys grouped as %v", g)
	}
	m := checkMatches(t, "NULL join keys", []*datum.Vec{k}, []*datum.Vec{k}, nil, nil)
	for _, li := range []int{0, 2, 4} {
		if len(m[li]) != 0 {
			t.Fatalf("NULL probe row %d matched %v", li, m[li])
		}
	}

	// Through the operators: NULL = NULL groups, NULL join keys never match.
	rows := [][]datum.D{{datum.Null, datum.NewInt(1)}, {datum.NewInt(7), datum.NewInt(2)}, {datum.Null, datum.NewInt(3)}}
	vals := valuesOp([]logical.ColumnID{1, 2}, rows)
	gb := &physical.HashGroupBy{Input: vals, GroupCols: []logical.ColumnID{1}, Aggs: []logical.AggItem{{ID: 3, Fn: logical.AggCount}}}
	res, err := Run(gb, NewCtx(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != "[(NULL, 2) (7, 1)]" {
		t.Fatalf("GROUP BY over NULL keys = %v", res.Rows)
	}
	hj := &physical.HashJoin{Kind: logical.InnerJoin, Left: vals, Right: valuesOp([]logical.ColumnID{4, 5}, rows),
		LeftKeys: []logical.ColumnID{1}, RightKeys: []logical.ColumnID{4}}
	res, err = Run(hj, NewCtx(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != "[(7, 2, 7, 2)]" {
		t.Fatalf("join on NULL keys = %v", res.Rows)
	}
}

func valuesOp(cols []logical.ColumnID, rows [][]datum.D) *physical.ValuesOp {
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

func TestHashTableNaNAndNegativeZero(t *testing.T) {
	otherNaN := math.Float64frombits(math.Float64bits(math.NaN()) ^ 1)
	if !math.IsNaN(otherNaN) || math.Float64bits(otherNaN) == math.Float64bits(math.NaN()) {
		t.Fatal("fixture needs a second NaN payload")
	}
	negZero := math.Copysign(0, -1)
	v := floats(0, negZero, math.NaN(), otherNaN, 1, math.NaN(), negZero)
	g := checkGroups(t, "NaN and -0.0", []*datum.Vec{v}, nil)
	if g[0] != g[1] || g[1] != g[6] {
		t.Fatalf("-0.0 and 0.0 compare equal and must share a group: %v", g)
	}
	if g[2] != g[3] || g[3] != g[5] || g[2] == g[0] || g[2] == g[4] {
		t.Fatalf("every NaN payload must form one group of its own: %v", g)
	}
	if datum.NewFloat(negZero).Hash() != datum.NewFloat(0).Hash() || datum.NewFloat(otherNaN).Hash() != datum.NewFloat(math.NaN()).Hash() {
		t.Fatal("datum.Hash must agree with the kernel hashes on -0.0 and NaN")
	}
	m := checkMatches(t, "NaN and -0.0 join", []*datum.Vec{v}, []*datum.Vec{floats(negZero, otherNaN, 0)}, nil, nil)
	if fmt.Sprint(m[0]) != "[0 2]" || fmt.Sprint(m[2]) != "[1]" {
		t.Fatalf("0.0 must match both zeros and NaN the NaN: %v", m)
	}
	checkMatches(t, "INT probe against -0.0", []*datum.Vec{ints(0, 1)}, []*datum.Vec{floats(negZero)}, nil, nil)
}

func TestHashTableDictionaries(t *testing.T) {
	dictA := &datum.StrDict{Vals: []string{"ant", "bee", "cat", "dog"}}
	dictB := &datum.StrDict{Vals: []string{"bee", "cow", "dog"}}
	a := dictVec(dictA, []string{"dog", "ant", "dog", "cat", "ant", "bee"}, 4)
	a2 := dictVec(dictA, []string{"bee", "dog", "ant"})
	b := dictVec(dictB, []string{"cow", "dog", "bee", "dog"}, 0)
	plain := strs("dog", "bee", "emu", "ant")
	g := checkGroups(t, "dictionary codes", []*datum.Vec{a}, nil)
	if g[0] != g[2] || g[4] == g[1] {
		t.Fatalf("dictionary grouping %v", g)
	}
	if e := newColEq(a, a2); e.mode != eqInts {
		t.Fatalf("one shared dictionary must compare codes, mode %d", e.mode)
	}
	if e := newColEq(a, b); e.mode != eqStrs {
		t.Fatalf("two dictionaries must compare values, mode %d", e.mode)
	}
	checkMatches(t, "same dictionary", []*datum.Vec{a}, []*datum.Vec{a2}, nil, nil)
	checkMatches(t, "dictionary probe, plain build", []*datum.Vec{a}, []*datum.Vec{plain}, nil, nil)
	checkMatches(t, "plain probe, dictionary build", []*datum.Vec{plain}, []*datum.Vec{b}, nil, nil)
	m := checkMatches(t, "two dictionaries", []*datum.Vec{a}, []*datum.Vec{b}, nil, nil)
	if fmt.Sprint(m[0]) != "[1 3]" {
		t.Fatalf("'dog' must match both 'dog' rows of the other dictionary, got %v", m[0])
	}
}

func TestHashTableFullHashCollisions(t *testing.T) {
	// Every row gets the same hash, so only the key comparison separates
	// groups and matches; it must be datum.Equal's, NaN = any number
	// included.
	vecs := []*datum.Vec{
		mkBoxed(datum.NewInt(3), datum.NewFloat(3), datum.NewString("3"), datum.Null, datum.NewInt(4),
			datum.NewFloat(math.NaN()), datum.NewBool(true), datum.NewInt(1), datum.Null, datum.NewString("3")),
		floats(1, 1, 1, 2, 1, 1, 1, 1, 2, 2),
	}
	same := make([]uint64, vecs[0].Len())
	for i := range same {
		same[i] = 42
	}
	checkGroups(t, "collided boxed keys", vecs, same)
	typed := []*datum.Vec{ints(5, 6, 5, 7, 6, 5), strs("x", "x", "x", "y", "x", "x")}
	collided := same[:typed[0].Len()]
	g := checkGroups(t, "collided typed keys", typed, collided)
	if fmt.Sprint(g) != "[0 1 0 2 1 0]" {
		t.Fatalf("collided typed keys grouped as %v", g)
	}
	checkMatches(t, "collided join", typed, []*datum.Vec{floats(6, 5, 5, 8), strs("x", "y", "x", "x")}, collided, same[:4])

	// Many ids through growth, every one of them colliding with others in
	// the low bits.
	n := 5000
	big := datum.NewVec(datum.KindInt, n)
	hs := make([]uint64, n)
	for i := 0; i < n; i++ {
		big.AppendD(datum.NewInt(int64(i % 1200)))
		hs[i] = uint64(i%1200) << 40
	}
	checkGroups(t, "growth with weak low bits", []*datum.Vec{big}, hs)
}

// TestHashAggFirstAppearanceOrder: groups come out in the order their first
// row appears, at every degree, with NULL keys forming one group.
func TestHashAggFirstAppearanceOrder(t *testing.T) {
	f := newParFixture(t, 9000, 0, 5)
	k, fl := f.rCols[0], f.rCols[2]
	tab, _ := f.store.Table("R")
	rows, err := tab.Rows(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, keys := range [][]logical.ColumnID{{k}, {fl, k}} {
		var want []string
		seen := map[string]bool{}
		for _, r := range rows {
			key := datum.Row{r[0]}
			if len(keys) == 2 {
				key = datum.Row{r[2], r[0]}
			}
			if s := key.String(); !seen[s] {
				seen[s] = true
				want = append(want, s)
			}
		}
		plan := &physical.HashGroupBy{Input: f.rScan, GroupCols: keys, Aggs: []logical.AggItem{{ID: 99, Fn: logical.AggCount}}}
		for _, degree := range []int{1, 4, 8} {
			res, err := Run(plan, f.ctx(t, degree))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != len(want) {
				t.Fatalf("keys %v degree %d: %d groups, want %d", keys, degree, len(res.Rows), len(want))
			}
			for i, r := range res.Rows {
				if got := r[:len(keys)].String(); got != want[i] {
					t.Fatalf("keys %v degree %d: group %d is %s, first appearance order has %s", keys, degree, i, got, want[i])
				}
			}
		}
	}
}
