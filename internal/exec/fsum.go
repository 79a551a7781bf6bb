package exec

import "math"

// compSum is an exact floating-point accumulator: it maintains the running
// sum as a list of non-overlapping partials (Shewchuk's expansion arithmetic,
// the algorithm behind CPython's math.fsum) and rounds only once, when the
// value is read. Because the retained expansion is the exact real-number sum
// of everything added, the rounded result is independent of the order values
// arrive in, where a plain (or even Kahan) running sum would drift with it.
type compSum struct {
	partials []float64
	// special accumulates infinities and NaNs outside the expansion (two-sum
	// algebra is only exact for finite values).
	special    float64
	hasSpecial bool
}

// add folds x into the expansion, keeping partials non-overlapping and
// ordered by increasing magnitude.
func (c *compSum) add(x float64) {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		c.special += x
		c.hasSpecial = true
		return
	}
	i := 0
	for _, y := range c.partials {
		if math.Abs(x) < math.Abs(y) {
			x, y = y, x
		}
		hi := x + y
		lo := y - (hi - x)
		if lo != 0 {
			c.partials[i] = lo
			i++
		}
		x = hi
	}
	c.partials = append(c.partials[:i], x)
}

// value returns the correctly rounded (round-half-even) sum of the expansion.
func (c *compSum) value() float64 {
	if c.hasSpecial {
		return c.special
	}
	n := len(c.partials)
	if n == 0 {
		return 0
	}
	// Sum from largest to smallest; stop at the first partial that does not
	// fit, then nudge for a half-ulp tie so the result is the exact sum
	// rounded once (CPython fsum's rounding step).
	i := n - 1
	hi := c.partials[i]
	var lo float64
	for i > 0 {
		x := hi
		i--
		y := c.partials[i]
		hi = x + y
		yr := hi - x
		lo = y - yr
		if lo != 0 {
			break
		}
	}
	if i > 0 && ((lo < 0 && c.partials[i-1] < 0) || (lo > 0 && c.partials[i-1] > 0)) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}
