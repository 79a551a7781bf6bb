// Typed kernels for the batch operators: predicate filtering over raw
// []int64/[]float64/[]string column slices writing selection vectors, hash
// computation for join/aggregation probes, and the accumulate loops of
// SUM/COUNT/MIN/MAX/AVG. Every kernel replicates the scalar evaluator's SQL
// semantics exactly — three-valued comparison (a NULL operand is never
// TRUE), the INT/FLOAT comparison family of datum.Compare (so 1 = 1.0), and
// fsum's compensated summation — which is what makes batch output
// bit-identical to the reference evaluator's.
package exec

import (
	"math"

	"repro/internal/datum"
	"repro/internal/logical"
)

// --- predicate compilation ---

// Forms a compiled predicate can take.
const (
	predColConst  uint8 = iota // col op constant
	predColCol                 // col op col
	predIsNull                 // col IS NULL
	predIsNotNull              // col IS NOT NULL
	predNever                  // never TRUE (e.g. comparison against NULL)
)

// compiledPred is one kernel-executable predicate over batch columns.
type compiledPred struct {
	form uint8
	col  int // offset of the left column in the batch layout
	col2 int // offset of the right column (predColCol)
	op   logical.CmpOp
	c    datum.D // constant operand (predColConst)
}

// compilePreds splits a pushed-down conjunction into kernel programs and a
// residual evaluated row by row. Comparisons between columns and constants
// and IS [NOT] NULL compile; LIKE, arithmetic, IN lists, OR, subqueries and
// UDFs stay residual. A conjunction may be evaluated in any order, so running
// the kernels first does not change which rows pass.
func compilePreds(preds []logical.Scalar, layout []logical.ColumnID) (kernels []compiledPred, residual []logical.Scalar) {
	for _, p := range preds {
		if cp, ok := compilePred(p, layout); ok {
			kernels = append(kernels, cp)
		} else {
			residual = append(residual, p)
		}
	}
	return kernels, residual
}

// compilePred translates one predicate into a kernel program, reporting
// false when no kernel applies.
func compilePred(p logical.Scalar, layout []logical.ColumnID) (compiledPred, bool) {
	find := func(id logical.ColumnID) int {
		for i, c := range layout {
			if c == id {
				return i
			}
		}
		return -1
	}
	switch t := p.(type) {
	case *logical.Cmp:
		if t.Op == logical.CmpLike {
			return compiledPred{}, false
		}
		lc, lIsCol := t.L.(*logical.Col)
		rc, rIsCol := t.R.(*logical.Col)
		lk, lIsConst := t.L.(*logical.Const)
		rk, rIsConst := t.R.(*logical.Const)
		switch {
		case lIsCol && rIsCol:
			a, b := find(lc.ID), find(rc.ID)
			if a < 0 || b < 0 {
				return compiledPred{}, false
			}
			return compiledPred{form: predColCol, col: a, col2: b, op: t.Op}, true
		case lIsCol && rIsConst:
			a := find(lc.ID)
			if a < 0 {
				return compiledPred{}, false
			}
			if rk.Val.IsNull() {
				return compiledPred{form: predNever}, true
			}
			return compiledPred{form: predColConst, col: a, op: t.Op, c: rk.Val}, true
		case lIsConst && rIsCol:
			a := find(rc.ID)
			if a < 0 {
				return compiledPred{}, false
			}
			if lk.Val.IsNull() {
				return compiledPred{form: predNever}, true
			}
			return compiledPred{form: predColConst, col: a, op: t.Op.Commute(), c: lk.Val}, true
		}
	case *logical.IsNull:
		col, ok := t.E.(*logical.Col)
		if !ok {
			return compiledPred{}, false
		}
		a := find(col.ID)
		if a < 0 {
			return compiledPred{}, false
		}
		if t.Negated {
			return compiledPred{form: predIsNotNull, col: a}, true
		}
		return compiledPred{form: predIsNull, col: a}, true
	}
	return compiledPred{}, false
}

// cmpMatches applies a comparison operator to a three-way compare result.
func cmpMatches(op logical.CmpOp, c int) bool {
	switch op {
	case logical.CmpEq:
		return c == 0
	case logical.CmpNe:
		return c != 0
	case logical.CmpLt:
		return c < 0
	case logical.CmpLe:
		return c <= 0
	case logical.CmpGt:
		return c > 0
	case logical.CmpGe:
		return c >= 0
	}
	return false
}

// family mirrors datum.Compare's rank(): NULL < BOOL < numeric < STRING.
func family(k datum.Kind) int {
	switch k {
	case datum.KindNull:
		return 0
	case datum.KindBool:
		return 1
	case datum.KindInt, datum.KindFloat:
		return 2
	case datum.KindString:
		return 3
	}
	return 4
}

// applyPred refines sel by one compiled predicate, appending survivors to
// out (which must be empty) and returning it.
func applyPred(b *Batch, p compiledPred, sel []int32, out []int32) []int32 {
	switch p.form {
	case predNever:
		return out
	case predIsNull:
		v := b.Vecs[p.col]
		for _, i := range sel {
			if v.Null(int(i)) {
				out = append(out, i)
			}
		}
		return out
	case predIsNotNull:
		v := b.Vecs[p.col]
		for _, i := range sel {
			if !v.Null(int(i)) {
				out = append(out, i)
			}
		}
		return out
	case predColConst:
		return selColConst(b.Vecs[p.col], p.op, p.c, sel, out)
	case predColCol:
		return selColCol(b.Vecs[p.col], b.Vecs[p.col2], p.op, sel, out)
	}
	return out
}

// selColConst selects rows where col op const is TRUE.
func selColConst(v *datum.Vec, op logical.CmpOp, c datum.D, sel, out []int32) []int32 {
	if v.Boxed() {
		for _, i := range sel {
			l := v.D(int(i))
			if l.IsNull() {
				continue
			}
			if cmpMatches(op, datum.Compare(l, c)) {
				out = append(out, i)
			}
		}
		return out
	}
	vk := v.Kind()
	if vk == datum.KindNull {
		return out
	}
	if family(vk) != family(c.Kind()) {
		// Cross-family comparisons have a fixed outcome for every non-NULL
		// value (datum.Compare orders whole families), so the predicate
		// collapses to "IS NOT NULL" or "never".
		if cmpMatches(op, cmpInts(family(vk), family(c.Kind()))) {
			for _, i := range sel {
				if !v.Null(int(i)) {
					out = append(out, i)
				}
			}
		}
		return out
	}
	nulls := v.Nulls()
	switch vk {
	case datum.KindInt:
		if c.Kind() == datum.KindFloat {
			return selIntColFloatConst(v.Ints, nulls, op, c.Float(), sel, out)
		}
		return selOrd(v.Ints, nulls, op, c.Int(), sel, out)
	case datum.KindFloat:
		return selOrd(v.Floats, nulls, op, c.Float(), sel, out)
	case datum.KindString:
		if v.Dict != nil {
			return selDictConst(v, op, c.Str(), sel, out)
		}
		return selOrd(v.Strs, nulls, op, c.Str(), sel, out)
	case datum.KindBool:
		var ci int64
		if c.Bool() {
			ci = 1
		}
		return selOrd(v.Ints, nulls, op, ci, sel, out)
	}
	return out
}

// selDictConst compares a dictionary-encoded string column against a string
// constant without decoding a single row: the constant translates to code
// space once (a binary search over the sorted dictionary), and because the
// dictionary is sorted, every comparison operator becomes the corresponding
// integer comparison over the codes. Constants absent from the dictionary
// collapse equality to no match — the typical case when a filter's value
// never occurs in a segment — and inequality bounds round to the adjacent
// code interval.
func selDictConst(v *datum.Vec, op logical.CmpOp, c string, sel, out []int32) []int32 {
	nulls := v.Nulls()
	dict := v.Dict
	code, found := dict.Code(c)
	switch op {
	case logical.CmpEq:
		if !found {
			return out
		}
		return selOrd(v.Ints, nulls, logical.CmpEq, code, sel, out)
	case logical.CmpNe:
		if !found {
			// Every non-NULL value differs from an absent constant.
			for _, i := range sel {
				if !nulls.Get(int(i)) {
					out = append(out, i)
				}
			}
			return out
		}
		return selOrd(v.Ints, nulls, logical.CmpNe, code, sel, out)
	case logical.CmpLt:
		// value < c  ⇔  code < |{entries < c}|.
		return selOrd(v.Ints, nulls, logical.CmpLt, dict.CodeFloor(c), sel, out)
	case logical.CmpGe:
		return selOrd(v.Ints, nulls, logical.CmpGe, dict.CodeFloor(c), sel, out)
	case logical.CmpLe:
		// value <= c ⇔ code < |{entries <= c}|.
		bound := dict.CodeFloor(c)
		if found {
			bound++
		}
		return selOrd(v.Ints, nulls, logical.CmpLt, bound, sel, out)
	case logical.CmpGt:
		bound := dict.CodeFloor(c)
		if found {
			bound++
		}
		return selOrd(v.Ints, nulls, logical.CmpGe, bound, sel, out)
	}
	return out
}

// selColCol selects rows where colA op colB is TRUE.
func selColCol(a, b *datum.Vec, op logical.CmpOp, sel, out []int32) []int32 {
	if a.Boxed() || b.Boxed() {
		for _, i := range sel {
			l, r := a.D(int(i)), b.D(int(i))
			if l.IsNull() || r.IsNull() {
				continue
			}
			if cmpMatches(op, datum.Compare(l, r)) {
				out = append(out, i)
			}
		}
		return out
	}
	ak, bk := a.Kind(), b.Kind()
	if ak == datum.KindNull || bk == datum.KindNull {
		return out
	}
	if family(ak) != family(bk) {
		if cmpMatches(op, cmpInts(family(ak), family(bk))) {
			for _, i := range sel {
				if !a.Null(int(i)) && !b.Null(int(i)) {
					out = append(out, i)
				}
			}
		}
		return out
	}
	if a.Dict != nil || b.Dict != nil {
		if a.Dict != nil && a.Dict == b.Dict {
			// Same code space: the sorted dictionary makes code order string
			// order, so the whole comparison runs on integers.
			return selOrd2(a.Ints, b.Ints, a.Nulls(), b.Nulls(), op, sel, out)
		}
		for _, i := range sel {
			if a.Null(int(i)) || b.Null(int(i)) {
				continue
			}
			if cmpMatches(op, datum.Compare(a.D(int(i)), b.D(int(i)))) {
				out = append(out, i)
			}
		}
		return out
	}
	an, bn := a.Nulls(), b.Nulls()
	switch {
	case ak == datum.KindInt && bk == datum.KindInt:
		return selOrd2(a.Ints, b.Ints, an, bn, op, sel, out)
	case ak == datum.KindFloat && bk == datum.KindFloat:
		return selOrd2(a.Floats, b.Floats, an, bn, op, sel, out)
	case ak == datum.KindString && bk == datum.KindString:
		return selOrd2(a.Strs, b.Strs, an, bn, op, sel, out)
	case ak == datum.KindBool && bk == datum.KindBool:
		return selOrd2(a.Ints, b.Ints, an, bn, op, sel, out)
	case ak == datum.KindInt && bk == datum.KindFloat:
		for _, i := range sel {
			if an.Get(int(i)) || bn.Get(int(i)) {
				continue
			}
			if cmpMatches(op, cmpF(float64(a.Ints[i]), b.Floats[i])) {
				out = append(out, i)
			}
		}
		return out
	case ak == datum.KindFloat && bk == datum.KindInt:
		for _, i := range sel {
			if an.Get(int(i)) || bn.Get(int(i)) {
				continue
			}
			if cmpMatches(op, cmpF(a.Floats[i], float64(b.Ints[i]))) {
				out = append(out, i)
			}
		}
		return out
	}
	return out
}

func cmpInts(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpF replicates datum's cmpFloat64 (NaN compares "equal" to everything,
// matching the row engine).
func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// selOrd is the column-vs-constant selection kernel over an ordered element
// type. All comparisons are expressed through < only, so float semantics
// match datum.Compare's three-way result (including NaN behaviour) exactly.
func selOrd[T int64 | float64 | string](vals []T, nulls datum.Bitmap, op logical.CmpOp, c T, sel, out []int32) []int32 {
	switch op {
	case logical.CmpEq:
		for _, i := range sel {
			if v := vals[i]; !nulls.Get(int(i)) && !(v < c) && !(c < v) {
				out = append(out, i)
			}
		}
	case logical.CmpNe:
		for _, i := range sel {
			if v := vals[i]; !nulls.Get(int(i)) && (v < c || c < v) {
				out = append(out, i)
			}
		}
	case logical.CmpLt:
		for _, i := range sel {
			if vals[i] < c && !nulls.Get(int(i)) {
				out = append(out, i)
			}
		}
	case logical.CmpLe:
		for _, i := range sel {
			if !(c < vals[i]) && !nulls.Get(int(i)) {
				out = append(out, i)
			}
		}
	case logical.CmpGt:
		for _, i := range sel {
			if c < vals[i] && !nulls.Get(int(i)) {
				out = append(out, i)
			}
		}
	case logical.CmpGe:
		for _, i := range sel {
			if !(vals[i] < c) && !nulls.Get(int(i)) {
				out = append(out, i)
			}
		}
	}
	return out
}

// selIntColFloatConst compares an INT column against a FLOAT constant by
// numeric value, like datum.Compare's shared INT/FLOAT family.
func selIntColFloatConst(vals []int64, nulls datum.Bitmap, op logical.CmpOp, c float64, sel, out []int32) []int32 {
	for _, i := range sel {
		if nulls.Get(int(i)) {
			continue
		}
		if cmpMatches(op, cmpF(float64(vals[i]), c)) {
			out = append(out, i)
		}
	}
	return out
}

// selOrd2 is the column-vs-column selection kernel.
func selOrd2[T int64 | float64 | string](a, b []T, an, bn datum.Bitmap, op logical.CmpOp, sel, out []int32) []int32 {
	for _, i := range sel {
		if an.Get(int(i)) || bn.Get(int(i)) {
			continue
		}
		l, r := a[i], b[i]
		var c int
		switch {
		case l < r:
			c = -1
		case r < l:
			c = 1
		}
		if cmpMatches(op, c) {
			out = append(out, i)
		}
	}
	return out
}

// --- hash kernels ---

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvMix(h, v uint64) uint64 { return (h ^ v) * fnvPrime64 }

// hashInit resets the per-row hash accumulators.
func hashInit(h []uint64) {
	for i := range h {
		h[i] = fnvOffset64
	}
}

// hashCombineVec folds one key column into the per-row hashes. The encoding
// mirrors datum.HashInto — a family tag, then INT and FLOAT both hashed as
// the float's bit pattern — so rows that compare equal (1 and 1.0, NULL and
// NULL) hash equal, exactly like the row engine's key hashing.
func hashCombineVec(v *datum.Vec, sel []int32, h []uint64) {
	if v.Boxed() || v.Kind() == datum.KindNull {
		for k, i := range sel {
			h[k] = hashCombineD(h[k], v.D(int(i)))
		}
		return
	}
	nulls := v.Nulls()
	switch v.Kind() {
	case datum.KindInt:
		for k, i := range sel {
			if nulls.Get(int(i)) {
				h[k] = fnvMix(h[k], 0)
				continue
			}
			h[k] = fnvMix(fnvMix(h[k], 2), math.Float64bits(float64(v.Ints[i])))
		}
	case datum.KindFloat:
		for k, i := range sel {
			if nulls.Get(int(i)) {
				h[k] = fnvMix(h[k], 0)
				continue
			}
			h[k] = fnvMix(fnvMix(h[k], 2), math.Float64bits(v.Floats[i]))
		}
	case datum.KindString:
		if v.Dict != nil {
			// Hash through the dictionary: the codes stay encoded, the hashed
			// bytes are the looked-up string with the usual family tag, so a
			// dict-encoded build side meets a plain probe side (or a different
			// dictionary) on equal hashes.
			vals := v.Dict.Vals
			for k, i := range sel {
				if nulls.Get(int(i)) {
					h[k] = fnvMix(h[k], 0)
					continue
				}
				x := fnvMix(h[k], 3)
				s := vals[v.Ints[i]]
				for j := 0; j < len(s); j++ {
					x = fnvMix(x, uint64(s[j]))
				}
				h[k] = x
			}
			return
		}
		for k, i := range sel {
			if nulls.Get(int(i)) {
				h[k] = fnvMix(h[k], 0)
				continue
			}
			x := fnvMix(h[k], 3)
			s := v.Strs[i]
			for j := 0; j < len(s); j++ {
				x = fnvMix(x, uint64(s[j]))
			}
			h[k] = x
		}
	case datum.KindBool:
		for k, i := range sel {
			if nulls.Get(int(i)) {
				h[k] = fnvMix(h[k], 0)
				continue
			}
			h[k] = fnvMix(fnvMix(h[k], 1), uint64(v.Ints[i]))
		}
	}
}

// hashCombineD is the boxed-representation fallback with the same encoding.
func hashCombineD(h uint64, d datum.D) uint64 {
	switch d.Kind() {
	case datum.KindNull:
		return fnvMix(h, 0)
	case datum.KindBool:
		var b uint64
		if d.Bool() {
			b = 1
		}
		return fnvMix(fnvMix(h, 1), b)
	case datum.KindInt:
		return fnvMix(fnvMix(h, 2), math.Float64bits(float64(d.Int())))
	case datum.KindFloat:
		return fnvMix(fnvMix(h, 2), math.Float64bits(d.Float()))
	case datum.KindString:
		x := fnvMix(h, 3)
		s := d.Str()
		for j := 0; j < len(s); j++ {
			x = fnvMix(x, uint64(s[j]))
		}
		return x
	}
	return h
}

// --- aggregate accumulate kernels ---

// vecAccumulator is one aggregate's state over all groups. accumulate is
// called once per batch (one interface dispatch per batch, not per row); the
// inner loops are typed. gids maps each selected row to its group id.
type vecAccumulator interface {
	ensure(nGroups int)
	accumulate(v *datum.Vec, sel []int32, gids []int32)
	result(g int) datum.D
}

// newVecAccumulator picks the accumulator for an aggregate given the
// argument vector's runtime representation (nil arg means COUNT(*), the only
// aggregate without an argument). DISTINCT aggregates and boxed arguments
// wrap the row accumulators of agg.go.
func newVecAccumulator(item logical.AggItem, arg *datum.Vec) vecAccumulator {
	if item.Arg == nil {
		return &countVecAcc{star: true}
	}
	if item.Distinct || arg.Boxed() {
		// The per-row cost only arises for DISTINCT and for data that
		// defeated the typed fill.
		return &boxedVecAcc{item: item}
	}
	k := arg.Kind()
	switch item.Fn {
	case logical.AggCount:
		return &countVecAcc{}
	case logical.AggSum:
		switch k {
		case datum.KindInt:
			return &sumIntVecAcc{}
		case datum.KindFloat:
			return &sumFloatVecAcc{}
		case datum.KindNull:
			return &nullArgVecAcc{}
		}
	case logical.AggAvg:
		switch k {
		case datum.KindInt, datum.KindFloat:
			return &avgVecAcc{}
		case datum.KindNull:
			return &nullArgVecAcc{}
		}
	case logical.AggMin, logical.AggMax:
		min := item.Fn == logical.AggMin
		switch k {
		case datum.KindInt, datum.KindBool:
			return &minmaxIntVecAcc{min: min, kind: k}
		case datum.KindFloat:
			return &minmaxFloatVecAcc{min: min}
		case datum.KindString:
			return &minmaxStrVecAcc{min: min}
		case datum.KindNull:
			return &nullArgVecAcc{}
		}
	}
	// Combinations without a typed kernel (SUM over a string column, ...)
	// replay the row accumulators so semantics stay identical.
	return &boxedVecAcc{item: item}
}

// countVecAcc implements COUNT(*) and COUNT(col).
type countVecAcc struct {
	star bool
	n    []int64
}

func (a *countVecAcc) ensure(n int) {
	for len(a.n) < n {
		a.n = append(a.n, 0)
	}
}

func (a *countVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	if a.star {
		for k := range sel {
			a.n[gids[k]]++
		}
		return
	}
	for k, i := range sel {
		if !v.Null(int(i)) {
			a.n[gids[k]]++
		}
	}
}

func (a *countVecAcc) result(g int) datum.D { return datum.NewInt(a.n[g]) }

// sumIntVecAcc sums an INT column exactly in int64 (a typed vector cannot
// contain floats, so the row path's float promotion can never trigger).
type sumIntVecAcc struct {
	any  []bool
	sums []int64
}

func (a *sumIntVecAcc) ensure(n int) {
	for len(a.any) < n {
		a.any = append(a.any, false)
		a.sums = append(a.sums, 0)
	}
}

func (a *sumIntVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	nulls := v.Nulls()
	for k, i := range sel {
		if nulls.Get(int(i)) {
			continue
		}
		g := gids[k]
		a.any[g] = true
		a.sums[g] += v.Ints[i]
	}
}

func (a *sumIntVecAcc) result(g int) datum.D {
	if !a.any[g] {
		return datum.Null
	}
	return datum.NewInt(a.sums[g])
}

// sumFloatVecAcc sums a FLOAT column with the same compensated summation as
// the row path's sumAcc — including the initial 0.0 carried in by its
// int→float promotion — so results are bit-identical.
type sumFloatVecAcc struct {
	any  []bool
	sums []compSum
}

func (a *sumFloatVecAcc) ensure(n int) {
	for len(a.any) < n {
		a.any = append(a.any, false)
		a.sums = append(a.sums, compSum{})
	}
}

func (a *sumFloatVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	nulls := v.Nulls()
	for k, i := range sel {
		if nulls.Get(int(i)) {
			continue
		}
		g := gids[k]
		if !a.any[g] {
			a.any[g] = true
			a.sums[g].add(0)
		}
		a.sums[g].add(v.Floats[i])
	}
}

func (a *sumFloatVecAcc) result(g int) datum.D {
	if !a.any[g] {
		return datum.Null
	}
	return datum.NewFloat(a.sums[g].value())
}

// avgVecAcc mirrors avgAcc: exact order-independent sum, one division at
// result time.
type avgVecAcc struct {
	n    []int64
	sums []compSum
}

func (a *avgVecAcc) ensure(n int) {
	for len(a.n) < n {
		a.n = append(a.n, 0)
		a.sums = append(a.sums, compSum{})
	}
}

func (a *avgVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	nulls := v.Nulls()
	if v.Kind() == datum.KindInt {
		for k, i := range sel {
			if nulls.Get(int(i)) {
				continue
			}
			g := gids[k]
			a.n[g]++
			a.sums[g].add(float64(v.Ints[i]))
		}
		return
	}
	for k, i := range sel {
		if nulls.Get(int(i)) {
			continue
		}
		g := gids[k]
		a.n[g]++
		a.sums[g].add(v.Floats[i])
	}
}

func (a *avgVecAcc) result(g int) datum.D {
	if a.n[g] == 0 {
		return datum.Null
	}
	return datum.NewFloat(a.sums[g].value() / float64(a.n[g]))
}

// minmaxIntVecAcc tracks MIN/MAX over INT (or BOOL, stored 0/1) columns.
type minmaxIntVecAcc struct {
	min  bool
	kind datum.Kind
	any  []bool
	vals []int64
}

func (a *minmaxIntVecAcc) ensure(n int) {
	for len(a.any) < n {
		a.any = append(a.any, false)
		a.vals = append(a.vals, 0)
	}
}

func (a *minmaxIntVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	nulls := v.Nulls()
	for k, i := range sel {
		if nulls.Get(int(i)) {
			continue
		}
		g := gids[k]
		x := v.Ints[i]
		if !a.any[g] {
			a.any[g], a.vals[g] = true, x
			continue
		}
		if (a.min && x < a.vals[g]) || (!a.min && x > a.vals[g]) {
			a.vals[g] = x
		}
	}
}

func (a *minmaxIntVecAcc) result(g int) datum.D {
	if !a.any[g] {
		return datum.Null
	}
	if a.kind == datum.KindBool {
		return datum.NewBool(a.vals[g] != 0)
	}
	return datum.NewInt(a.vals[g])
}

// minmaxFloatVecAcc tracks MIN/MAX over FLOAT columns; strict < / >
// replacement matches datum.Compare's NaN behaviour in the row accumulator.
type minmaxFloatVecAcc struct {
	min  bool
	any  []bool
	vals []float64
}

func (a *minmaxFloatVecAcc) ensure(n int) {
	for len(a.any) < n {
		a.any = append(a.any, false)
		a.vals = append(a.vals, 0)
	}
}

func (a *minmaxFloatVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	nulls := v.Nulls()
	for k, i := range sel {
		if nulls.Get(int(i)) {
			continue
		}
		g := gids[k]
		x := v.Floats[i]
		if !a.any[g] {
			a.any[g], a.vals[g] = true, x
			continue
		}
		if (a.min && x < a.vals[g]) || (!a.min && x > a.vals[g]) {
			a.vals[g] = x
		}
	}
}

func (a *minmaxFloatVecAcc) result(g int) datum.D {
	if !a.any[g] {
		return datum.Null
	}
	return datum.NewFloat(a.vals[g])
}

// minmaxStrVecAcc tracks MIN/MAX over VARCHAR columns.
type minmaxStrVecAcc struct {
	min  bool
	any  []bool
	vals []string
}

func (a *minmaxStrVecAcc) ensure(n int) {
	for len(a.any) < n {
		a.any = append(a.any, false)
		a.vals = append(a.vals, "")
	}
}

func (a *minmaxStrVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	nulls := v.Nulls()
	if v.Dict != nil {
		// Dictionary-encoded batches read candidates through the dictionary;
		// the per-group best stays a string, so batches carrying different
		// dictionaries still fold into one answer.
		vals := v.Dict.Vals
		for k, i := range sel {
			if nulls.Get(int(i)) {
				continue
			}
			g := gids[k]
			x := vals[v.Ints[i]]
			if !a.any[g] {
				a.any[g], a.vals[g] = true, x
				continue
			}
			if (a.min && x < a.vals[g]) || (!a.min && x > a.vals[g]) {
				a.vals[g] = x
			}
		}
		return
	}
	for k, i := range sel {
		if nulls.Get(int(i)) {
			continue
		}
		g := gids[k]
		x := v.Strs[i]
		if !a.any[g] {
			a.any[g], a.vals[g] = true, x
			continue
		}
		if (a.min && x < a.vals[g]) || (!a.min && x > a.vals[g]) {
			a.vals[g] = x
		}
	}
}

func (a *minmaxStrVecAcc) result(g int) datum.D {
	if !a.any[g] {
		return datum.Null
	}
	return datum.NewString(a.vals[g])
}

// nullArgVecAcc handles aggregates whose argument column is entirely NULL:
// every SUM/AVG/MIN/MAX over it is NULL.
type nullArgVecAcc struct{ n int }

func (a *nullArgVecAcc) ensure(n int) {
	if n > a.n {
		a.n = n
	}
}
func (a *nullArgVecAcc) accumulate(*datum.Vec, []int32, []int32) {}
func (a *nullArgVecAcc) result(int) datum.D                      { return datum.Null }

// boxedVecAcc replays the row accumulators per value: DISTINCT aggregates,
// mixed-kind (boxed) argument columns, and kinds without a typed loop.
type boxedVecAcc struct {
	item logical.AggItem
	accs []aggAcc
}

func (a *boxedVecAcc) ensure(n int) {
	for len(a.accs) < n {
		a.accs = append(a.accs, newAgg(a.item))
	}
}

func (a *boxedVecAcc) accumulate(v *datum.Vec, sel []int32, gids []int32) {
	for k, i := range sel {
		a.accs[gids[k]].add(v.D(int(i)))
	}
}

func (a *boxedVecAcc) result(g int) datum.D { return a.accs[g].result() }
