package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// fingerprint summarises a result so that two results compare equal exactly
// when they hold the same rows: same column count, same values of the same
// Go types, floats equal bit for bit. Ordered results hash rows in order;
// unordered ones combine per-row hashes with sum and xor, so any row order
// gives the same fingerprint.
type fingerprint struct {
	rows       int
	ordered    uint64
	sum, xor   uint64
	firstFloat string // first float seen, as an exact hex float, for diagnostics
}

func (f fingerprint) String() string {
	return fmt.Sprintf("rows=%d ordered=%016x multiset=%016x/%016x first_float=%s",
		f.rows, f.ordered, f.sum, f.xor, f.firstFloat)
}

// same compares two fingerprints; ordered selects whether row order counts.
func (f fingerprint) same(g fingerprint, ordered bool) bool {
	if f.rows != g.rows || f.sum != g.sum || f.xor != g.xor {
		return false
	}
	return !ordered || f.ordered == g.ordered
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// hashRow hashes one row's values with a type tag per value, so that int64
// 1, float64 1 and string "1" all differ. Floats hash bit for bit.
func hashRow(row []any, fp *fingerprint) uint64 {
	h := uint64(fnvOffset)
	h = fnvU64(h, uint64(len(row)))
	for _, v := range row {
		switch t := v.(type) {
		case nil:
			h = fnvByte(h, 'n')
		case bool:
			h = fnvByte(h, 'b')
			if t {
				h = fnvByte(h, 1)
			} else {
				h = fnvByte(h, 0)
			}
		case int64:
			h = fnvU64(fnvByte(h, 'i'), uint64(t))
		case float64:
			if fp.firstFloat == "" {
				fp.firstFloat = strconv.FormatFloat(t, 'x', -1, 64)
			}
			h = fnvU64(fnvByte(h, 'f'), math.Float64bits(t))
		case string:
			h = fnvU64(fnvByte(h, 's'), uint64(len(t)))
			for i := 0; i < len(t); i++ {
				h = fnvByte(h, t[i])
			}
		default:
			h = fnvByte(h, '?')
		}
	}
	return h
}

// fingerprintRows fingerprints a result's rows.
func fingerprintRows(rows [][]any) fingerprint {
	fp := fingerprint{rows: len(rows), ordered: fnvOffset}
	for _, r := range rows {
		h := hashRow(r, &fp)
		fp.ordered = fnvU64(fp.ordered, h)
		fp.sum += h
		fp.xor ^= h
	}
	return fp
}

// closeRows reports whether two results hold the same rows in the same
// order, with floats equal to a relative 1e-9 and every other value exact.
func closeRows(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j, v := range a[i] {
			x, xf := v.(float64)
			y, yf := b[i][j].(float64)
			if xf && yf {
				if math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), math.Abs(y)) {
					return false
				}
			} else if v != b[i][j] {
				return false
			}
		}
	}
	return true
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is percentile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// spearman is the rank correlation of two equally long samples, with tied
// values given their average rank. It reports false when either side is
// constant, where the coefficient is undefined.
func spearman(xs, ys []float64) (float64, bool) {
	rx, ry := ranks(xs), ranks(ys)
	n := float64(len(xs))
	var mx, my float64
	for i := range rx {
		mx += rx[i]
		my += ry[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, false
	}
	return sxy / math.Sqrt(sxx*syy), true
}

func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// literal substitutes args for the `?` placeholders of a statement, giving
// the text a literal Exec runs. Arguments are int64 or string; strings are
// quoted, and the benchmark's never contain quotes.
func literal(text string, args []any) string {
	if len(args) == 0 {
		return text
	}
	var sb strings.Builder
	n := 0
	for i := 0; i < len(text); i++ {
		if text[i] != '?' {
			sb.WriteByte(text[i])
			continue
		}
		if v, ok := args[n].(string); ok {
			sb.WriteString("'" + v + "'")
		} else {
			fmt.Fprint(&sb, args[n])
		}
		n++
	}
	return sb.String()
}
